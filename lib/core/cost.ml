open Dq_relation

(* Optimal-string-alignment variant of Damerau-Levenshtein: three rolling
   rows of the dynamic program suffice because transpositions only look two
   rows back.  Only strings too long for the bit-vector kernel below get
   here. *)
let dp_distance s t =
  let m = String.length s and n = String.length t in
  if m = 0 then n
  else if n = 0 then m
  else begin
    let prev2 = Array.make (n + 1) 0 in
    let prev = Array.init (n + 1) (fun j -> j) in
    let curr = Array.make (n + 1) 0 in
    for i = 1 to m do
      curr.(0) <- i;
      for j = 1 to n do
        let substitution_cost = if s.[i - 1] = t.[j - 1] then 0 else 1 in
        let best =
          min
            (min (prev.(j) + 1) (curr.(j - 1) + 1))
            (prev.(j - 1) + substitution_cost)
        in
        let best =
          if
            i > 1 && j > 1
            && s.[i - 1] = t.[j - 2]
            && s.[i - 2] = t.[j - 1]
          then min best (prev2.(j - 2) + 1)
          else best
        in
        curr.(j) <- best
      done;
      Array.blit prev 0 prev2 0 (n + 1);
      Array.blit curr 0 prev 0 (n + 1)
    done;
    prev.(n)
  end

(* Hyyrö's bit-vector OSA distance (Nordic Journal of Computing 10(1),
   2003).  Bit i of a word stands for row i + 1 of the DP table, whose
   columns are the text's bytes.  [masks.(c)] has bit i set when byte i of
   the pattern is [c]; the scan keeps the column's vertical deltas as two
   words ([vp]: +1, [vn]: -1) and the bottom cell's value in [dist].  Bits
   above the pattern's length carry garbage that only ever moves upwards,
   into bits nobody reads. *)
let max_pattern = Sys.int_size - 1

let set_masks masks p =
  for i = 0 to String.length p - 1 do
    let c = Char.code (String.unsafe_get p i) in
    Array.unsafe_set masks c (Array.unsafe_get masks c lor (1 lsl i))
  done

let clear_masks masks p =
  for i = 0 to String.length p - 1 do
    Array.unsafe_set masks (Char.code (String.unsafe_get p i)) 0
  done

(* The distance between [t] and the [m]-byte pattern whose masks are
   loaded, 1 <= m <= max_pattern. *)
let scan masks m t =
  let top = m - 1 in
  let vp = ref (-1) and vn = ref 0 and d0 = ref 0 and pm_prev = ref 0 in
  let dist = ref m in
  for j = 0 to String.length t - 1 do
    let pm = Array.unsafe_get masks (Char.code (String.unsafe_get t j)) in
    (* Bit i of [tc]: p.[i - 1] = t.[j], p.[i] = t.[j - 1], and the
       previous column's diagonal at bit i - 1 was not zero. *)
    let tc = ((lnot !d0 land pm) lsl 1) land !pm_prev in
    let x = pm lor tc in
    let zero = (((x land !vp) + !vp) lxor !vp) lor x lor !vn in
    let hp = !vn lor lnot (zero lor !vp) in
    let hn = zero land !vp in
    dist := !dist + ((hp lsr top) land 1) - ((hn lsr top) land 1);
    let hp = (hp lsl 1) lor 1 and hn = hn lsl 1 in
    vp := hn lor lnot (zero lor hp);
    vn := zero land hp;
    d0 := zero;
    pm_prev := pm
  done;
  !dist

(* One 256-entry mask table per domain, all zero between calls.  Systhreads
   of one domain share it and can be preempted mid-scan, so a caller that
   finds it taken works in a fresh table instead. *)
type slot = { masks : int array; busy : bool Atomic.t }

let slot =
  Domain.DLS.new_key (fun () ->
      { masks = Array.make 256 0; busy = Atomic.make false })

let with_masks p f =
  let s = Domain.DLS.get slot in
  if Atomic.compare_and_set s.busy false true then begin
    set_masks s.masks p;
    let r = f s.masks in
    clear_masks s.masks p;
    Atomic.set s.busy false;
    r
  end
  else begin
    let masks = Array.make 256 0 in
    set_masks masks p;
    f masks
  end

(* The distance is symmetric, so the shorter string is the pattern. *)
let rec dl_distance s t =
  let m = String.length s in
  if m > String.length t then dl_distance t s
  else if m = 0 then String.length t
  else if m > max_pattern then dp_distance s t
  else with_masks s (fun masks -> scan masks m t)

let dl_distances p ts =
  let m = String.length p in
  if m = 0 then Array.map String.length ts
  else if m > max_pattern then Array.map (dl_distance p) ts
  else with_masks p (fun masks -> Array.map (scan masks m) ts)

let value_distance v v' = dl_distance (Value.to_string v) (Value.to_string v')

let similarity v v' =
  let s = Value.to_string v and s' = Value.to_string v' in
  let longer = max (String.length s) (String.length s') in
  if longer = 0 then 0.
  else float_of_int (dl_distance s s') /. float_of_int longer

let change ~weight v v' = weight *. similarity v v'

let tuple_change ~original ~repaired =
  List.fold_left
    (fun acc pos ->
      acc
      +. change
           ~weight:(Tuple.weight original pos)
           (Tuple.get original pos) (Tuple.get repaired pos))
    0.
    (Tuple.diff_positions original repaired)

let repair_cost ~original ~repair =
  Relation.fold
    (fun acc t ->
      match Relation.find repair (Tuple.tid t) with
      | Some t' -> acc +. tuple_change ~original:t ~repaired:t'
      | None -> acc)
    0. original
