open Dq_relation
module Pool = Dq_parallel.Pool
module Metrics = Dq_obs.Metrics
module Trace = Dq_obs.Trace

(* Entry-span arguments: the scan's input sizes. *)
let scan_args rel sigma () =
  [
    ("tuples", Dq_obs.Json.Int (Relation.cardinality rel));
    ("clauses", Dq_obs.Json.Int (Array.length sigma));
  ]

(* Detection instruments (no-ops unless metrics collection is enabled):
   scans made, violations surfaced, and wall time per entry point. *)
let m_scans = Metrics.counter "violation.scans"

let m_found = Metrics.counter "violation.found"

let m_find_all = Metrics.timer "violation.find_all"

let m_vio_counts = Metrics.timer "violation.vio_counts"

let m_satisfies = Metrics.timer "violation.satisfies"

type t =
  | Single of { tid : int; cfd : Cfd.t }
  | Pair of { tid1 : int; tid2 : int; cfd : Cfd.t }

let cfd_of = function Single { cfd; _ } -> cfd | Pair { cfd; _ } -> cfd

let tids = function
  | Single { tid; _ } -> [ tid ]
  | Pair { tid1; tid2; _ } -> [ tid1; tid2 ]

let pp ppf = function
  | Single { tid; cfd } ->
    Format.fprintf ppf "tuple #%d violates %a" tid Cfd.pp cfd
  | Pair { tid1; tid2; cfd } ->
    Format.fprintf ppf "tuples #%d and #%d violate %a" tid1 tid2 Cfd.pp cfd

let violates_constant cfd t =
  match Cfd.rhs_pattern cfd with
  | Pattern.Wild -> false
  | Pattern.Const a ->
    Cfd.applies_lhs cfd t
    &&
    let v = Tuple.get t (Cfd.rhs cfd) in
    (not (Value.is_null v)) && not (Value.equal v a)

let pair_conflict cfd t1 t2 =
  Pattern.is_wild (Cfd.rhs_pattern cfd)
  && Cfd.applies_lhs cfd t1 && Cfd.applies_lhs cfd t2
  && Vkey.equal (Cfd.lhs_key cfd t1) (Cfd.lhs_key cfd t2)
  &&
  let v1 = Tuple.get t1 (Cfd.rhs cfd) and v2 = Tuple.get t2 (Cfd.rhs cfd) in
  (not (Value.is_null v1)) && (not (Value.is_null v2)) && not (Value.equal v1 v2)

(* ---- constant clauses ------------------------------------------------- *)

(* The constant clauses, probed per tuple through the anchored index. *)
let const_index sigma =
  Anchor_index.build Fun.id
    (List.filter Cfd.is_constant (Array.to_list sigma))

(* ---- wildcard clauses: grouping on interned codes --------------------- *)

module Vtbl = Hashtbl.Make (Value)

(* One attribute of the scanned tuples, interned: [codes.(i)] is the code
   of tuple [i]'s value ([-1] for null), codes counting from 0 in order of
   first appearance, and [dict] maps each value to its code under
   [Value.equal], so [Int 1], [Float 1.] and ["1"] stay distinct.  [order]
   lists the tuples with a non-null value by ascending code, in relation
   order within a code. *)
type column = { codes : int array; order : int array; dict : int Vtbl.t }

let intern tuples p =
  let n = Array.length tuples in
  let dict = Vtbl.create 64 in
  let codes = Array.make n (-1) in
  for i = 0 to n - 1 do
    let v = Tuple.get tuples.(i) p in
    if not (Value.is_null v) then
      codes.(i) <-
        (match Vtbl.find_opt dict v with
        | Some c -> c
        | None ->
          let c = Vtbl.length dict in
          Vtbl.add dict v c;
          c)
  done;
  (* A counting sort: [next.(c)] is where code [c]'s next tuple goes. *)
  let card = Vtbl.length dict in
  let next = Array.make (card + 1) 0 in
  Array.iter (fun c -> if c >= 0 then next.(c + 1) <- next.(c + 1) + 1) codes;
  for c = 1 to card do
    next.(c) <- next.(c) + next.(c - 1)
  done;
  let order = Array.make next.(card) 0 in
  Array.iteri
    (fun i c ->
      if c >= 0 then begin
        order.(next.(c)) <- i;
        next.(c) <- next.(c) + 1
      end)
    codes;
  { codes; order; dict }

(* Scratch arrays for grouping a scan's wildcard clauses one at a time
   over its [n] tuples, allocated once per scan.  After {!group_clause},
   [gid.(i)] is tuple [i]'s group and [vid.(i)] its class, or [-1] in both
   for a non-member.  Members are the tuples matching the clause's LHS
   pattern whose RHS value is non-null (a null RHS neither causes nor
   counts toward a pair violation); a group is the members with equal LHS
   values, a class the members of one group with equal RHS values.
   [t1] and [t2] hold one slot per group or class: {!refine} works in
   them, and the consumers of a grouping tally in them. *)
type workspace = {
  gid : int array;
  vid : int array;
  t1 : int array;
  t2 : int array;
}

let workspace n =
  {
    gid = Array.make n (-1);
    vid = Array.make n (-1);
    t1 = Array.make (n + 1) 0;
    t2 = Array.make (n + 1) 0;
  }

(* Split, in place, the [parts] parts of [ids] ([-1]: in no part) by a
   column's codes: tuples with equal ids and equal codes get equal new
   ids, numbered densely; returns the new number of parts.  The walk in
   code order meets each (part, code) pair in one run, so [seen.(g)], the
   last code part [g] met, tells when a pair starts.  The column must be
   non-null wherever [ids] is not [-1]. *)
let refine ws col ids parts =
  let seen = ws.t1 and fresh = ws.t2 and order = col.order in
  Array.fill seen 0 parts (-1);
  let next = ref 0 in
  for k = 0 to Array.length order - 1 do
    let i = order.(k) in
    let g = ids.(i) in
    if g >= 0 then begin
      let c = col.codes.(i) in
      if seen.(g) <> c then begin
        seen.(g) <- c;
        fresh.(g) <- !next;
        incr next
      end;
      ids.(i) <- fresh.(g)
    end
  done;
  !next

(* Group one wildcard-RHS clause into [ws.gid] and [ws.vid]; [column p] is
   attribute [p] interned.  Returns the numbers of groups and classes.
   Every group has a member unless there are no classes, so some group
   holds two RHS values exactly when [classes > groups]. *)
let group_clause column ws cfd =
  let gid = ws.gid and n = Array.length ws.gid in
  let rhs = column (Cfd.rhs cfd) in
  for i = 0 to n - 1 do
    gid.(i) <- (if rhs.codes.(i) >= 0 then 0 else -1)
  done;
  (* Keep the tuples matching each LHS pattern entry.  A constant absent
     from its column matches no tuple. *)
  let wild = ref [] and pats = Cfd.lhs_patterns cfd in
  Array.iteri
    (fun k p ->
      let col = column p in
      let need =
        match pats.(k) with
        | Pattern.Wild ->
          wild := col :: !wild;
          -1
        | Pattern.Const v -> Option.value ~default:(-2) (Vtbl.find_opt col.dict v)
      in
      for i = 0 to n - 1 do
        let c = col.codes.(i) in
        if c < 0 || (need <> -1 && c <> need) then gid.(i) <- -1
      done)
    (Cfd.lhs cfd);
  (* Constant entries hold one code across the members: only the
     wildcard positions split them into groups. *)
  let groups = List.fold_left (fun parts col -> refine ws col gid parts) 1 !wild in
  Array.blit gid 0 ws.vid 0 n;
  let classes = refine ws rhs ws.vid groups in
  (groups, classes)

(* The scan's interned columns: each attribute a wildcard clause reads is
   interned once, on first use, and shared by every clause. *)
let interner rel tuples =
  let cols = Array.make (Schema.arity (Relation.schema rel)) None in
  fun p ->
    match cols.(p) with
    | Some col -> col
    | None ->
      let col = intern tuples p in
      cols.(p) <- Some col;
      col

(* Add each member's pair violations under the grouped clause to
   [counts]: the members of its group whose RHS value is non-null and
   differs from its own, [non_null(group) - count(class)]. *)
let add_pair_counts ws (groups, classes) counts =
  let in_group = ws.t1 and in_class = ws.t2 in
  Array.fill in_group 0 groups 0;
  Array.fill in_class 0 classes 0;
  for i = 0 to Array.length counts - 1 do
    let v = ws.vid.(i) in
    if v >= 0 then begin
      let g = ws.gid.(i) in
      in_group.(g) <- in_group.(g) + 1;
      in_class.(v) <- in_class.(v) + 1
    end
  done;
  for i = 0 to Array.length counts - 1 do
    let v = ws.vid.(i) in
    if v >= 0 then
      counts.(i) <- counts.(i) + in_group.(ws.gid.(i)) - in_class.(v)
  done

(* One pair per member of a group holding two RHS values, in relation
   order, against the group's first member (in relation order) with a
   different RHS value: the group's first member, or else the first
   member whose value differs from that one's. *)
let clause_pairs ws (groups, _) rhs tuples cfd =
  let first = ws.t1 and second = ws.t2 and code i = rhs.codes.(i) in
  Array.fill first 0 groups (-1);
  Array.fill second 0 groups (-1);
  Array.iteri
    (fun i g ->
      if g >= 0 then
        if first.(g) < 0 then first.(g) <- i
        else if second.(g) < 0 && code i <> code first.(g) then second.(g) <- i)
    ws.gid;
  let out = ref [] in
  for i = Array.length tuples - 1 downto 0 do
    let g = ws.gid.(i) in
    if g >= 0 && second.(g) >= 0 then begin
      let w = if code i <> code first.(g) then first.(g) else second.(g) in
      out :=
        Pair { tid1 = Tuple.tid tuples.(i); tid2 = Tuple.tid tuples.(w); cfd }
        :: !out
    end
  done;
  !out

let wild_clauses sigma =
  Array.to_list sigma |> List.filter (fun cfd -> not (Cfd.is_constant cfd))

(* ---- the public detection API ----------------------------------------- *)

(* Every function below scans constant clauses through the anchored
   index, over tuple chunks on the pool whose results are merged in
   chunk-index order, and wildcard clauses through the grouping kernel,
   one clause at a time in Σ order.  Neither depends on chunk boundaries,
   so output is byte-identical at any job count. *)

let find_all ?pool rel sigma =
  Trace.span ~cat:"violation" ~args:(scan_args rel sigma) "find_all"
  @@ fun () ->
  Metrics.time m_find_all @@ fun () ->
  Metrics.incr m_scans;
  let tuples = Relation.tuples rel in
  let n = Array.length tuples in
  let idx = const_index sigma in
  let singles =
    Pool.map_chunks ~label:"find_all.chunk" pool ~n (fun lo hi ->
        let out = ref [] in
        for i = lo to hi - 1 do
          let t = tuples.(i) in
          Anchor_index.iter idx (Tuple.get t) (fun cfd ->
              if violates_constant cfd t then
                out := Single { tid = Tuple.tid t; cfd } :: !out)
        done;
        List.rev !out)
  in
  (* One pair per involved tuple, each against a witness with a different
     (non-null) RHS value, so every involved tuple is reported without a
     quadratic listing. *)
  let column = interner rel tuples and ws = workspace n in
  let pairs =
    List.map
      (fun cfd ->
        let sizes = group_clause column ws cfd in
        clause_pairs ws sizes (column (Cfd.rhs cfd)) tuples cfd)
      (wild_clauses sigma)
  in
  let all = List.concat (singles @ pairs) in
  if Metrics.enabled () then Metrics.add m_found (List.length all);
  all

(* vio(t) for every tuple at once, as an array aligned with [tuples].
   Chunks write only their own slots, so the array needs no locking. *)
let counts_array ?pool ?deadline rel sigma tuples =
  let n = Array.length tuples in
  let idx = const_index sigma in
  let counts = Array.make n 0 in
  Pool.for_chunks ?deadline ~label:"vio_counts.chunk" pool ~n (fun lo hi ->
      for i = lo to hi - 1 do
        let t = tuples.(i) in
        let c = ref 0 in
        Anchor_index.iter idx (Tuple.get t) (fun cfd ->
            if violates_constant cfd t then incr c);
        counts.(i) <- !c
      done);
  let column = interner rel tuples and ws = workspace n in
  List.iter
    (fun cfd ->
      Option.iter Dq_fault.Deadline.check deadline;
      add_pair_counts ws (group_clause column ws cfd) counts)
    (wild_clauses sigma);
  counts

let vio_counts ?pool ?deadline rel sigma =
  Trace.span ~cat:"violation" ~args:(scan_args rel sigma) "vio_counts"
  @@ fun () ->
  Metrics.time m_vio_counts @@ fun () ->
  Metrics.incr m_scans;
  let tuples = Relation.tuples rel in
  let counts = counts_array ?pool ?deadline rel sigma tuples in
  if Metrics.enabled () then Metrics.add m_found (Array.fold_left ( + ) 0 counts);
  (* Materialised in relation order, so the table's internal layout (and
     hence any fold over it) is identical at every job count. *)
  let out = Hashtbl.create 256 in
  Array.iteri
    (fun i c -> if c > 0 then Hashtbl.add out (Tuple.tid tuples.(i)) c)
    counts;
  out

let violating_tids rel sigma =
  let counts = vio_counts rel sigma in
  Relation.fold
    (fun acc t -> if Hashtbl.mem counts (Tuple.tid t) then Tuple.tid t :: acc else acc)
    [] rel
  |> List.rev

let total ?pool rel sigma =
  let tuples = Relation.tuples rel in
  Array.fold_left ( + ) 0 (counts_array ?pool rel sigma tuples)

let vio_tuple rel sigma t =
  let vio = ref 0 in
  Array.iter
    (fun cfd ->
      if Cfd.is_constant cfd then begin
        if violates_constant cfd t then incr vio
      end
      else if Cfd.applies_lhs cfd t then begin
        let v = Tuple.get t (Cfd.rhs cfd) in
        if not (Value.is_null v) then begin
          let key = Cfd.lhs_key cfd t in
          Relation.iter
            (fun t' ->
              if
                Tuple.tid t' <> Tuple.tid t
                && Cfd.applies_lhs cfd t'
                && Vkey.equal (Cfd.lhs_key cfd t') key
              then
                let v' = Tuple.get t' (Cfd.rhs cfd) in
                if (not (Value.is_null v')) && not (Value.equal v v') then incr vio)
            rel
        end
      end)
    sigma;
  !vio

let satisfies ?pool rel sigma =
  Trace.span ~cat:"violation" ~args:(scan_args rel sigma) "satisfies"
  @@ fun () ->
  Metrics.time m_satisfies @@ fun () ->
  Metrics.incr m_scans;
  let tuples = Relation.tuples rel in
  let n = Array.length tuples in
  let idx = const_index sigma in
  let found = Atomic.make false in
  Pool.for_chunks ~label:"satisfies.chunk" pool ~n (fun lo hi ->
      let i = ref lo in
      while (not (Atomic.get found)) && !i < hi do
        let t = tuples.(!i) in
        (try
           Anchor_index.iter idx (Tuple.get t) (fun cfd ->
               if violates_constant cfd t then raise Exit)
         with Exit -> Atomic.set found true);
        incr i
      done);
  (not (Atomic.get found))
  &&
  let column = interner rel tuples and ws = workspace n in
  not
    (List.exists
       (fun cfd ->
         let groups, classes = group_clause column ws cfd in
         classes > groups)
       (wild_clauses sigma))
