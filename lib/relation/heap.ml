type 'a t = {
  tie : ('a -> 'a -> int) option;
  data : (float * 'a) Vec.t;
}

let create ?tie () = { tie; data = Vec.create () }

let length h = Vec.length h.data

let is_empty h = Vec.is_empty h.data

let swap h i j =
  let tmp = Vec.get h.data i in
  Vec.set h.data i (Vec.get h.data j);
  Vec.set h.data j tmp

(* Strict "comes before" order.  Without a tie-break, entries of equal
   priority compare unordered and pop in an order that depends on the
   heap's internal layout — i.e. on the interleaved history of every add
   and pop.  With [tie], the order is total, so [pop_min] is a pure
   function of the heap's *contents*: callers that need replayable pop
   sequences (the repair queue, whose resumed runs must replay the
   uninterrupted run's decisions) pass one. *)
let before h i j =
  let pi, xi = Vec.get h.data i and pj, xj = Vec.get h.data j in
  pi < pj
  || (pi = pj && match h.tie with Some cmp -> cmp xi xj < 0 | None -> false)

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let n = Vec.length h.data in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < n && before h l !smallest then smallest := l;
  if r < n && before h r !smallest then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let add h ~priority x =
  Vec.push h.data (priority, x);
  sift_up h (Vec.length h.data - 1)

let peek_min h = if Vec.is_empty h.data then None else Some (Vec.get h.data 0)

let pop_min h =
  match Vec.length h.data with
  | 0 -> None
  | 1 -> Vec.pop h.data
  | n ->
    let min = Vec.get h.data 0 in
    let last = Vec.get h.data (n - 1) in
    ignore (Vec.pop h.data);
    Vec.set h.data 0 last;
    sift_down h 0;
    Some min

let clear h = Vec.clear h.data
