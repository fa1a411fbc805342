open Dq_relation
open Dq_cfd
module Metrics = Dq_obs.Metrics
module Provenance = Dq_obs.Provenance
module Report = Dq_obs.Report
module Trace = Dq_obs.Trace
module Progress = Dq_obs.Progress
module Fault = Dq_fault.Fault
module Deadline = Dq_fault.Deadline
module Clock = Dq_fault.Clock

let m_steps = Metrics.counter "batch.resolve_steps"

let m_merges = Metrics.counter "batch.merges"

let m_rescans = Metrics.counter "batch.rescans"

let m_t_init = Metrics.timer "batch.phase.init"

let m_t_scan = Metrics.timer "batch.phase.initial_scan"

let m_t_resolve = Metrics.timer "batch.phase.resolve"

let m_t_write = Metrics.timer "batch.phase.write_back"

type stats = {
  steps : int;
  merges : int;
  rhs_fixes : int;
  lhs_fixes : int;
  nulls_introduced : int;
  cells_changed : int;
  runtime : float;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<h>steps=%d merges=%d rhs_fixes=%d lhs_fixes=%d nulls=%d \
     cells_changed=%d runtime=%.3fs@]"
    s.steps s.merges s.rhs_fixes s.lhs_fixes s.nulls_introduced s.cells_changed
    s.runtime

type action =
  | Set_rhs of { cell : int; value : Value.t }
  | Merge of { cell1 : int; cell2 : int }
  | Set_lhs of { cell : int; target : Eqclass.target }

type plan = { cost : float; action : action }

module Value_table = Hashtbl.Make (Value)

(* The tuples of one wildcard-RHS clause that share an effective LHS key,
   with the multiset of their non-null effective RHS values.  The counts
   answer "does some other member disagree on the RHS?" without visiting
   the members. *)
type bucket = {
  tids : (int, unit) Hashtbl.t;
  rhs_counts : int Value_table.t;
  (* non-null value -> members holding it; a value leaves the table when
     its count drops to zero, so the length is the number of distinct
     values *)
  mutable rhs_total : int; (* members with a non-null RHS *)
}

type state = {
  rel : Relation.t; (* working copy; values untouched until write-back *)
  (* No decision depends on hash-table iteration order: partner choice,
     float sums, medoid scans and instantiation run through sorted or
     member-ordered paths, and the queue's total tie-break makes offer
     order irrelevant.  A resumed run, whose tables are rebuilt from a
     snapshot with a different history, therefore replays exactly. *)
  sigma : Cfd.t array;
  lhs_of : int array array; (* cfd id -> LHS positions *)
  lhs_pats_of : Pattern.t array array;
  eq : Eqclass.t;
  arity : int;
  wild : int list; (* wildcard-RHS clause ids, ascending *)
  wild_index : int Anchor_index.t;
  (* the wildcard-RHS clauses by anchor: probed with a tuple's effective
     values, it finds every clause the tuple can be filed under *)
  buckets : bucket Vkey.Table.t array; (* wild cfds only *)
  filed : (int, bucket * Value.t) Hashtbl.t array;
  (* tid -> the bucket it is filed in and the RHS value counted there *)
  touching : int Anchor_index.t array;
  (* attr -> the clauses mentioning it, by anchor: looked up with a
     tuple's own values, it prunes the (potentially thousands of) pattern
     rows to the handful the tuple can match *)
  attr_wild : int list array;
  (* attr -> wildcard-RHS clauses mentioning attr: a change to it moves the
     tuple between buckets (LHS) or changes its bucket's counts (RHS) *)
  const_index : int Anchor_index.t; (* constant-RHS clauses, by anchor *)
  strata : int array; (* cfd id -> dependency-graph stratum *)
  queue : (int * int) Heap.t;
  (* (cfd id, tid) keyed by plan cost, ties broken by (cfd id, tid).  The
     tie-break is load-bearing: it makes the pop order a pure function of
     the queue's contents, so the order offers land in never shows — not
     within a scan, and not in a resumed run, whose queue refills in a
     different order.  Greedy repair is order-sensitive on ties. *)
  enqueued : (int * int, float) Hashtbl.t; (* pair -> its queued priority *)
  findv : (int array, int list Vkey.Table.t) Hashtbl.t;
  (* lazy FINDV indices, by the positions they are keyed on *)
  class_weights : (int, (Value.t * float) list) Hashtbl.t;
  (* class root -> (distinct original value, aggregate weight of the
     members holding it), sorted by value; built lazily, dropped on union.
     Lets class costs and medoids be computed in O(distinct values)
     instead of O(members). *)
  mutable merges : int;
  mutable rhs_fixes : int;
  mutable lhs_fixes : int;
  mutable nulls_introduced : int;
  trail : Provenance.trail;
  (* Context for the provenance entries the next [with_change] records:
     the clause the resolution step is serving, its plan cost, and the
     step counter.  [None]/[0.] during instantiation. *)
  mutable ctx_clause : string option;
  mutable ctx_cost : float;
  mutable ctx_pass : int;
}

let tuple st tid = Relation.find_exn st.rel tid

let cellof st tid attr = Eqclass.cell st.eq ~tid ~attr

let eff st tid attr = Eqclass.effective st.eq (cellof st tid attr)

let eff_matches_lhs st cid tid =
  let lhs = st.lhs_of.(cid) and pats = st.lhs_pats_of.(cid) in
  let rec loop i =
    i >= Array.length lhs
    || (Pattern.matches (eff st tid lhs.(i)) pats.(i) && loop (i + 1))
  in
  loop 0

let eff_key st cid tid = Array.map (eff st tid) st.lhs_of.(cid)

(* Offer a (clause, tuple) pair to the queue.  Fresh offers enter
   optimistically (near-zero priority, biased by the clause's dependency
   stratum): the pop loop verifies, computes the true plan cost and either
   applies the plan or re-queues the pair at that cost, so every live
   violation gets scored before anything more expensive is applied — a
   lazy, incremental PICKNEXT. *)
let offer st cid tid =
  let key = (cid, tid) in
  let optimistic = float_of_int st.strata.(cid) *. 1e-9 in
  match Hashtbl.find_opt st.enqueued key with
  | Some p when p <= optimistic -> ()
  | _ ->
    Hashtbl.replace st.enqueued key optimistic;
    Heap.add st.queue ~priority:optimistic key

let mark_dirty st tid attr =
  Anchor_index.iter st.touching.(attr) (eff st tid) (fun cid ->
      offer st cid tid)

(* Buckets: group tuples of each wildcard-RHS clause by their effective LHS
   key, maintained incrementally as targets change. *)

let bucket_remove st cid tid =
  match Hashtbl.find_opt st.filed.(cid) tid with
  | None -> ()
  | Some (b, v) ->
    Hashtbl.remove st.filed.(cid) tid;
    Hashtbl.remove b.tids tid;
    if not (Value.is_null v) then begin
      b.rhs_total <- b.rhs_total - 1;
      match Value_table.find b.rhs_counts v with
      | 1 -> Value_table.remove b.rhs_counts v
      | n -> Value_table.replace b.rhs_counts v (n - 1)
    end

let bucket_insert st cid tid =
  if eff_matches_lhs st cid tid then begin
    let key = eff_key st cid tid in
    let b =
      match Vkey.Table.find_opt st.buckets.(cid) key with
      | Some b -> b
      | None ->
        let b =
          {
            tids = Hashtbl.create 4;
            rhs_counts = Value_table.create 4;
            rhs_total = 0;
          }
        in
        Vkey.Table.add st.buckets.(cid) key b;
        b
    in
    let v = eff st tid (Cfd.rhs st.sigma.(cid)) in
    Hashtbl.replace st.filed.(cid) tid (b, v);
    Hashtbl.replace b.tids tid ();
    if not (Value.is_null v) then begin
      b.rhs_total <- b.rhs_total + 1;
      let n = Option.value ~default:0 (Value_table.find_opt b.rhs_counts v) in
      Value_table.replace b.rhs_counts v (n + 1)
    end
  end

(* File [tid] under every wildcard clause whose LHS pattern its effective
   values match.  The index skips only clauses anchored on a constant the
   tuple does not hold, which [bucket_insert] would reject anyway. *)
let file_tuple st tid =
  Anchor_index.iter st.wild_index (eff st tid) (fun cid ->
      bucket_insert st cid tid)

(* Whether a member of [b] other than [tid] holds a non-null RHS value
   other than [v] (itself non-null), read from the counts. *)
let conflicts st cid b tid v =
  let differ =
    b.rhs_total - Option.value ~default:0 (Value_table.find_opt b.rhs_counts v)
  in
  let self =
    match Hashtbl.find_opt st.filed.(cid) tid with
    | Some (b', v') when b' == b && not (Value.is_null v' || Value.equal v' v)
      ->
      1
    | _ -> 0
  in
  differ > self

(* Run a mutation of the equivalence classes containing [cells], keeping
   buckets and dirty sets in sync.  Only members of classes whose
   {e effective value actually changes} are touched: when a one-cell class
   merges into a 200-member group whose value stands, only the one cell is
   reindexed — without this, absorbing a group costs O(|group|²). *)
let with_change st cells mutate =
  (* Distinct affected classes, with members and pre-mutation values. *)
  let classes = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let root = Eqclass.find st.eq c in
      if not (Hashtbl.mem classes root) then
        Hashtbl.add classes root
          (Eqclass.members st.eq root, Eqclass.effective st.eq root))
    cells;
  mutate ();
  (* The affected classes are disjoint, so each changed cell appears once. *)
  let changed = ref [] in
  Hashtbl.iter
    (fun root (members, before) ->
      let after = Eqclass.effective st.eq root in
      if not (Value.equal before after) then
        List.iter
          (fun (tid, attr) -> changed := (tid, attr, before, after) :: !changed)
          members)
    classes;
  (* Every cell whose effective value changed gets a trail entry.  The
     entries of one mutation are sorted by (tid, attr) so the trail is a
     canonical function of the decision sequence, not of hash-table
     iteration order. *)
  let changed =
    List.sort
      (fun (t1, a1, _, _) (t2, a2, _, _) ->
        match compare t1 t2 with 0 -> compare a1 a2 | c -> c)
      !changed
  in
  let schema = Relation.schema st.rel in
  List.iter
    (fun (tid, attr, old_value, new_value) ->
      Provenance.record st.trail
        {
          Provenance.tid;
          attr;
          attr_name = Schema.attribute schema attr;
          old_value;
          new_value;
          clause = st.ctx_clause;
          cost_delta = st.ctx_cost;
          pass = st.ctx_pass;
        })
    changed;
  let reindex = Hashtbl.create 16 in
  List.iter
    (fun (tid, attr, _, _) ->
      List.iter
        (fun cid -> Hashtbl.replace reindex (cid, tid) ())
        st.attr_wild.(attr))
    changed;
  (* The values already changed, but each filing records the bucket and
     the counted RHS value, so removal still undoes exactly what insertion
     did.  Visit order is free: bucket contents are sets, counts commute,
     and the queue's total tie-break pops the same sequence whatever order
     the offers land in. *)
  Hashtbl.iter (fun (cid, tid) () -> bucket_remove st cid tid) reindex;
  Hashtbl.iter (fun (cid, tid) () -> bucket_insert st cid tid) reindex;
  List.iter (fun (tid, attr, _, _) -> mark_dirty st tid attr) changed

(* Value-sorted (original value, aggregate member weight) pairs of the
   class, cached per root.  Weights accumulate in member order and are
   listed in value order — the orders a resumed run reproduces exactly,
   independent of any table's insertion history. *)
let class_weights st c =
  let root = Eqclass.find st.eq c in
  match Hashtbl.find_opt st.class_weights root with
  | Some pairs -> pairs
  | None ->
    let table = Hashtbl.create 8 in
    List.iter
      (fun (tid, attr) ->
        let t = tuple st tid in
        let v = Tuple.get t attr in
        if not (Value.is_null v) then begin
          let w = Tuple.weight t attr in
          match Hashtbl.find_opt table v with
          | Some acc -> Hashtbl.replace table v (acc +. w)
          | None -> Hashtbl.add table v w
        end)
      (Eqclass.members st.eq root);
    let pairs =
      Hashtbl.fold (fun v w acc -> (v, w) :: acc) table []
      |> List.sort (fun (a, _) (b, _) -> Value.compare a b)
    in
    Hashtbl.add st.class_weights root pairs;
    pairs

(* Cost(t, B, v): weighted cost of moving every member of the class to [v],
   measured from the members' original values (Section 4.2).  Computed from
   the per-value weights: sum_u W_u * sim(u, v). *)
let pairs_cost pairs v =
  List.fold_left
    (fun acc (u, w_u) -> acc +. (w_u *. Cost.similarity u v))
    0. pairs

let class_cost st c v = pairs_cost (class_weights st c) v

(* FINDV's relation-backed value source: tuples agreeing with [t] on
   X ∪ {A} \ {B}.  An index depends only on the positions it is keyed on
   and on the original values, which stay put until write-back, so it is
   built once per distinct position list, whatever clauses share it.
   Candidates are re-validated against the current state by the caller,
   so staleness only costs candidate quality, not correctness. *)
let findv_positions st cid lhs_pos =
  let lhs = st.lhs_of.(cid) in
  let keep = ref [] in
  Array.iteri (fun i pos -> if i <> lhs_pos then keep := pos :: !keep) lhs;
  Array.of_list (List.rev (Cfd.rhs st.sigma.(cid) :: !keep))

let findv_table st positions =
  match Hashtbl.find_opt st.findv positions with
  | Some table -> table
  | None ->
    let table = Vkey.Table.create 256 in
    Relation.iter
      (fun t ->
        let key = Array.map (Tuple.get t) positions in
        let prev =
          match Vkey.Table.find_opt table key with Some l -> l | None -> []
        in
        if List.length prev < 32 then
          Vkey.Table.replace table key (Tuple.tid t :: prev))
      st.rel;
    Hashtbl.add st.findv positions table;
    table

let findv_candidates st cid lhs_pos tid =
  let positions = findv_positions st cid lhs_pos in
  let key = Array.map (eff st tid) positions in
  let table = findv_table st positions in
  let attr = st.lhs_of.(cid).(lhs_pos) in
  let current = eff st tid attr in
  match Vkey.Table.find_opt table key with
  | None -> []
  | Some tids ->
    List.fold_left
      (fun acc tid' ->
        if tid' = tid then acc
        else
          let v = eff st tid' attr in
          if
            Value.is_null v || Value.equal v current
            || List.exists (Value.equal v) acc
          then acc
          else v :: acc)
      [] tids

(* Estimate how many clause violations tuple [tid] would incur if the
   effective value of [attr] became [v] (everything else unchanged).  Used
   to score candidate fixes: a fix that is locally cheap but knocks the
   tuple out of line with other clauses (e.g. relocating a tuple to the
   city its corrupted area code points at, against zip and tax-rate
   evidence) scores worse than one consistent with the rest of the tuple.
   Only clauses touching [attr] can change status, so only they are
   examined. *)
let vio_estimate st tid attr v =
  let eff' tid' a = if tid' = tid && a = attr then v else eff st tid' a in
  let count = ref 0 in
  Anchor_index.iter st.touching.(attr) (eff' tid) (fun cid ->
      let cfd = st.sigma.(cid) in
      let lhs = st.lhs_of.(cid) and pats = st.lhs_pats_of.(cid) in
      let lhs_match =
        let rec loop i =
          i >= Array.length lhs
          || (Pattern.matches (eff' tid lhs.(i)) pats.(i) && loop (i + 1))
        in
        loop 0
      in
      if lhs_match then begin
        let rv = eff' tid (Cfd.rhs cfd) in
        match Cfd.rhs_pattern cfd with
        | Pattern.Const a ->
          if (not (Value.is_null rv)) && not (Value.equal rv a) then incr count
        | Pattern.Wild ->
          if not (Value.is_null rv) then begin
            let key = Array.map (eff' tid) lhs in
            match Vkey.Table.find_opt st.buckets.(cid) key with
            | Some b when conflicts st cid b tid rv -> incr count
            | Some _ | None -> ()
          end
      end);
  !count

(* costfix-style score: weighted change cost, inflated by the violations
   the tuple would still incur after the change (plus a small absolute
   penalty so zero-weight changes still prefer violation-free values) and
   discounted by the violations the change resolves.  The discount is what
   makes a fix that reconciles several clauses at once (restoring a
   swapped state code repairs the zip, tax-rate and area-code evidence
   together) beat a cheap fix that silences a single clause by pushing the
   tuple further from the rest of its own evidence. *)
let plan_score st tid attr v base_cost =
  let before = vio_estimate st tid attr (eff st tid attr) in
  let after = vio_estimate st tid attr v in
  let removed = max 0 (before - after) in
  ((base_cost *. float_of_int (1 + after)) +. (0.05 *. float_of_int after))
  /. float_of_int (1 + removed)

(* Cases 1.2 / 2.2: the RHS target is a committed constant, so resolve by
   changing an LHS attribute of [tid].  [resolves i v] decides whether
   setting the LHS attribute at position [i] to [v] actually breaks the
   violation (pattern mismatch, or key inequality in the pair case). *)
let lhs_fix_plan st cid tid ~resolves =
  let lhs = st.lhs_of.(cid) in
  let best = ref None in
  let consider cost action =
    match !best with
    | Some { cost = c; _ } when c <= cost -> ()
    | _ -> best := Some { cost; action }
  in
  Array.iteri
    (fun i attr ->
      let c = cellof st tid attr in
      let null_plan () =
        consider
          (plan_score st tid attr Value.null (class_cost st c Value.null))
          (Set_lhs { cell = c; target = Eqclass.Null })
      in
      match Eqclass.target st.eq c with
      | Eqclass.Null -> ()
      | Eqclass.Const _ -> null_plan ()
      | Eqclass.Unfixed -> (
        let candidates =
          List.filter (resolves i) (findv_candidates st cid i tid)
        in
        match candidates with
        | [] -> null_plan ()
        | vs ->
          List.iter
            (fun v ->
              consider
                (plan_score st tid attr v (class_cost st c v))
                (Set_lhs { cell = c; target = Eqclass.Const v }))
            vs))
    lhs;
  !best

(* Verify whether (clause, tuple) still violates under the current targets;
   if so, produce the cheapest local fix (the CFD-RESOLVE case analysis). *)
let verify_and_plan st cid tid =
  if not (Relation.mem st.rel tid) then None
  else begin
    let cfd = st.sigma.(cid) in
    let rhs = Cfd.rhs cfd in
    match Cfd.rhs_pattern cfd with
    | Pattern.Const a ->
      if not (eff_matches_lhs st cid tid) then None
      else begin
        let c = cellof st tid rhs in
        match Eqclass.target st.eq c with
        | Eqclass.Null -> None
        | Eqclass.Unfixed ->
          if Value.equal (Eqclass.effective st.eq c) a then None
          else
            (* case 1.1: the target is free, commit it to the constant *)
            Some
              {
                cost = plan_score st tid rhs a (class_cost st c a);
                action = Set_rhs { cell = c; value = a };
              }
        | Eqclass.Const b ->
          if Value.equal b a then None
          else
            (* case 1.2: committed elsewhere; break the LHS match *)
            let pats = st.lhs_pats_of.(cid) in
            let resolves i v =
              match pats.(i) with
              | Pattern.Const p -> not (Value.equal v p)
              | Pattern.Wild -> false
            in
            lhs_fix_plan st cid tid ~resolves
      end
    | Pattern.Wild -> (
      match Hashtbl.find_opt st.filed.(cid) tid with
      | None -> None (* effective LHS no longer matches the pattern *)
      | Some (b, _) -> (
        let v = eff st tid rhs in
        if Value.is_null v || not (conflicts st cid b tid v) then None
        else
          let partner =
            (* smallest conflicting tid: a pure function of the bucket's
               contents, replayable after a resume *)
            let best = ref None in
            Hashtbl.iter
              (fun tid' () ->
                if tid' <> tid then
                  let v' = eff st tid' rhs in
                  if (not (Value.is_null v')) && not (Value.equal v v') then
                    match !best with
                    | Some b when b <= tid' -> ()
                    | _ -> best := Some tid')
              b.tids;
            !best
          in
          match partner with
          | None -> None
          | Some tid' -> (
            let c1 = cellof st tid rhs and c2 = cellof st tid' rhs in
            (* Case 2.2's resolution: break the key equality (or pattern
               match) of one of the two tuples on the LHS. *)
            let lhs_alternative () =
              let pats = st.lhs_pats_of.(cid) in
              let lhs = st.lhs_of.(cid) in
              let plan_for this other =
                let resolves i v =
                  (match pats.(i) with
                  | Pattern.Const p -> not (Value.equal v p)
                  | Pattern.Wild -> false)
                  || not (Value.equal v (eff st other lhs.(i)))
                in
                lhs_fix_plan st cid this ~resolves
              in
              match plan_for tid tid', plan_for tid' tid with
              | Some p, Some p' -> Some (if p.cost <= p'.cost then p else p')
              | (Some _ as p), None | None, (Some _ as p) -> p
              | None, None -> None
            in
            match Eqclass.target st.eq c1, Eqclass.target st.eq c2 with
            | Eqclass.Null, _ | _, Eqclass.Null -> None (* case 2.3 *)
            | Eqclass.Unfixed, Eqclass.Unfixed ->
              (* case 2.1: merge; estimate the cost of moving the smaller
                 class onto the larger one's value (the exact post-merge
                 medoid is recomputed when the plan is applied) *)
              let big, small, small_tid =
                if Eqclass.size st.eq c1 >= Eqclass.size st.eq c2 then
                  (c1, c2, tid')
                else (c2, c1, tid)
              in
              let keep = Eqclass.effective st.eq big in
              Some
                {
                  cost =
                    plan_score st small_tid rhs keep (class_cost st small keep);
                  action = Merge { cell1 = c1; cell2 = c2 };
                }
            | Eqclass.Const cst, Eqclass.Unfixed ->
              (* One side already committed: merging drags the free side
                 onto the constant, which is catastrophic when the free
                 side is a large innocent class and the committed tuple is
                 the one whose LHS has drifted — so an LHS fix competes. *)
              let merge =
                {
                  cost = plan_score st tid' rhs cst (class_cost st c2 cst);
                  action = Merge { cell1 = c1; cell2 = c2 };
                }
              in
              Some
                (match lhs_alternative () with
                | Some p when p.cost < merge.cost -> p
                | _ -> merge)
            | Eqclass.Unfixed, Eqclass.Const cst ->
              let merge =
                {
                  cost = plan_score st tid rhs cst (class_cost st c1 cst);
                  action = Merge { cell1 = c1; cell2 = c2 };
                }
              in
              Some
                (match lhs_alternative () with
                | Some p when p.cost < merge.cost -> p
                | _ -> merge)
            | Eqclass.Const _, Eqclass.Const _ ->
              (* case 2.2: both committed; only an LHS change can help *)
              lhs_alternative ())))
  end

(* PICKNEXT as a lazy best-first loop over the queue.  Popping a pair
   re-verifies it against the current targets: resolved pairs are dropped,
   pairs whose true plan cost exceeds their queued priority are re-queued
   at the true cost, and a pair popped at (or below) its true cost is the
   globally cheapest live fix — exactly the greedy choice of Fig. 5, at
   amortised O(log q) per step instead of a full rescan. *)
let pick_next st =
  let rec pop () =
    match Heap.pop_min st.queue with
    | None -> None
    | Some (priority, ((cid, tid) as key)) -> (
      match Hashtbl.find_opt st.enqueued key with
      | Some p when p < priority -. 1e-12 -> pop () (* a fresher copy exists *)
      | _ -> (
        Hashtbl.remove st.enqueued key;
        match verify_and_plan st cid tid with
        | None -> pop ()
        | Some plan ->
          if plan.cost <= priority +. 1e-9 then Some (cid, tid, plan)
          else begin
            Hashtbl.replace st.enqueued key plan.cost;
            Heap.add st.queue ~priority:plan.cost key;
            pop ()
          end))
  in
  pop ()

(* The weighted-medoid value of a class: the member original value that
   minimises the class's change cost — what instantiation will pick.  Ties
   go to the smallest value.  [None] when every member was originally
   null.  A one-member class has a single candidate, its own value. *)
let best_constant st root =
  match Eqclass.members st.eq root with
  | [ (tid, attr) ] ->
    let v = Tuple.get (tuple st tid) attr in
    if Value.is_null v then None else Some v
  | _ ->
    let pairs = class_weights st root in
    let best = ref None in
    List.iter
      (fun (v, _) ->
        let c = pairs_cost pairs v in
        match !best with
        | Some (_, bc) when bc <= c -> ()
        | _ -> best := Some (v, c))
      pairs;
    Option.map fst !best

let apply st = function
  | Set_rhs { cell; value } ->
    with_change st [ cell ] (fun () ->
        Eqclass.set_target st.eq cell (Eqclass.Const value));
    st.rhs_fixes <- st.rhs_fixes + 1
  | Merge { cell1; cell2 } ->
    Trace.span ~cat:"batch"
      ~args:(fun () ->
        [
          ("cell1", Dq_obs.Json.Int cell1);
          ("cell2", Dq_obs.Json.Int cell2);
        ])
      "batch.merge"
    @@ fun () ->
    with_change st [ cell1; cell2 ] (fun () ->
        (* Drop both cached weight tables; [class_weights] rebuilds the
           union's from its member list. *)
        Hashtbl.remove st.class_weights (Eqclass.find st.eq cell1);
        Hashtbl.remove st.class_weights (Eqclass.find st.eq cell2);
        let root = Eqclass.union st.eq cell1 cell2 in
        (* Keep the representative aligned with the value the merged class
           is headed for, so effective-value checks (and the pattern rows
           they trigger) see the likely outcome rather than whichever
           side's representative survived the union. *)
        if Eqclass.target st.eq root = Eqclass.Unfixed then
          match best_constant st root with
          | Some v -> Eqclass.set_repr st.eq root v
          | None -> ());
    st.merges <- st.merges + 1;
    Metrics.incr m_merges
  | Set_lhs { cell; target } ->
    with_change st [ cell ] (fun () -> Eqclass.set_target st.eq cell target);
    st.lhs_fixes <- st.lhs_fixes + 1;
    if target = Eqclass.Null then
      st.nulls_introduced <- st.nulls_introduced + 1

(* Lines 10–13 of Fig. 4: give every still-unfixed class its least-cost
   constant.  Classes whose best constant is their own representative keep
   their effective value, so they need no bucket or dirty maintenance. *)
let instantiate st =
  let changed = ref false in
  Eqclass.iter_roots
    (fun root ->
      if Eqclass.target st.eq root = Eqclass.Unfixed then
        match best_constant st root with
        | None ->
          (* every member was originally null: the class is uncertain *)
          let repr_null = Value.is_null (Eqclass.repr st.eq root) in
          if repr_null then Eqclass.set_target st.eq root Eqclass.Null
          else begin
            with_change st [ root ] (fun () ->
                Eqclass.set_target st.eq root Eqclass.Null);
            changed := true
          end
        | Some best ->
          if Value.equal best (Eqclass.repr st.eq root) then
            Eqclass.set_target st.eq root (Eqclass.Const best)
          else begin
            with_change st [ root ] (fun () ->
                Eqclass.set_target st.eq root (Eqclass.Const best));
            changed := true
          end)
    st.eq;
  !changed

let init_state ?eq rel sigma ~use_dependency_graph =
  let schema = Relation.schema rel in
  let arity = Schema.arity schema in
  let n = Array.length sigma in
  let lhs_of = Array.map Cfd.lhs sigma in
  let lhs_pats_of = Array.map Cfd.lhs_patterns sigma in
  let mentioning = Array.make arity [] in
  let attr_wild = Array.make arity [] in
  let wild = ref [] in
  let const = ref [] in
  Array.iteri
    (fun cid cfd ->
      List.iter
        (fun attr -> mentioning.(attr) <- cid :: mentioning.(attr))
        (Cfd.attrs cfd);
      if Cfd.is_constant cfd then const := cid :: !const
      else begin
        wild := cid :: !wild;
        List.iter
          (fun attr -> attr_wild.(attr) <- cid :: attr_wild.(attr))
          (Cfd.attrs cfd)
      end)
    sigma;
  let by_anchor cids = Anchor_index.build (Array.get sigma) (List.rev cids) in
  let strata =
    if use_dependency_graph then Depgraph.strata schema sigma
    else Array.make n 0
  in
  let eq =
    match eq with
    | Some eq -> eq (* restored from a checkpoint *)
    | None ->
      Eqclass.create ~arity ~original:(fun ~tid ~attr ->
          Tuple.get (Relation.find_exn rel tid) attr)
  in
  let st =
    {
      rel;
      sigma;
      lhs_of;
      lhs_pats_of;
      eq;
      arity;
      wild = List.rev !wild;
      wild_index = by_anchor !wild;
      buckets = Array.map (fun _ -> Vkey.Table.create 256) sigma;
      filed = Array.map (fun _ -> Hashtbl.create 256) sigma;
      touching = Array.map by_anchor mentioning;
      attr_wild;
      const_index = by_anchor !const;
      strata;
      queue = Heap.create ~tie:compare ();
      enqueued = Hashtbl.create 1024;
      findv = Hashtbl.create 16;
      class_weights = Hashtbl.create 1024;
      merges = 0;
      rhs_fixes = 0;
      lhs_fixes = 0;
      nulls_introduced = 0;
      trail = Provenance.create ();
      ctx_clause = None;
      ctx_cost = 0.;
      ctx_pass = 0;
    }
  in
  (* Register every cell (line 1 of Fig. 4) and build the buckets.  On a
     restored [eq] the registration no-ops (every cell is already a class
     member) and the buckets rebuild from the checkpoint's effective
     values. *)
  Relation.iter
    (fun t ->
      let tid = Tuple.tid t in
      for attr = 0 to arity - 1 do
        ignore (cellof st tid attr)
      done;
      file_tuple st tid)
    rel;
  st

(* Rebuild every wildcard clause's buckets, RHS counts included, from the
   current effective values — the ground truth the incremental maintenance
   must agree with. *)
let rebuild_buckets st =
  List.iter
    (fun cid ->
      Vkey.Table.reset st.buckets.(cid);
      Hashtbl.reset st.filed.(cid))
    st.wild;
  Relation.iter (fun t -> file_tuple st (Tuple.tid t)) st.rel

(* Offer every live violation under the current effective values: constant
   clauses by direct checks, wildcard clauses from conflicting buckets
   (every member of a bucket holding two distinct effective RHS values).
   It is line 4 of Fig. 4, the initial Dirty_Tuples scan, and it runs
   again when the quiescence check finds a violation.  Bucket-table
   iteration order is a function of insertion history, but the queue's
   total tie-break makes the offer order irrelevant.  Returns how many
   (clause, tuple) pairs were offered. *)
let offer_all_violations st =
  let offered = ref 0 in
  let offer cid tid =
    incr offered;
    offer st cid tid
  in
  Relation.iter
    (fun t ->
      let tid = Tuple.tid t in
      Anchor_index.iter st.const_index (eff st tid) (fun cid ->
          match Cfd.rhs_pattern st.sigma.(cid) with
          | Pattern.Const a when eff_matches_lhs st cid tid ->
            let v = eff st tid (Cfd.rhs st.sigma.(cid)) in
            if not (Value.is_null v || Value.equal v a) then offer cid tid
          | Pattern.Const _ | Pattern.Wild -> ()))
    st.rel;
  List.iter
    (fun cid ->
      Vkey.Table.iter
        (fun _key b ->
          if Value_table.length b.rhs_counts >= 2 then
            Hashtbl.iter (fun tid () -> offer cid tid) b.tids)
        st.buckets.(cid))
    st.wild;
  !offered

(* The relation the targets would write back: every tuple, in relation
   order, holding its effective values. *)
let effective_relation st =
  let out = Relation.create (Relation.schema st.rel) in
  Relation.iter
    (fun t ->
      let tid = Tuple.tid t in
      Relation.add out (Tuple.create ~tid (Array.init st.arity (eff st tid))))
    st.rel;
  out

let repair ?(use_dependency_graph = true) ?(deadline = Deadline.never)
    ?checkpoint ?resume db sigma =
  Trace.span ~cat:"engine"
    ~args:(fun () ->
      [
        ("tuples", Dq_obs.Json.Int (Relation.cardinality db));
        ("clauses", Dq_obs.Json.Int (Array.length sigma));
      ])
    "batch_repair"
  @@ fun () ->
  let started = Clock.now () in
  let phases = ref [] in
  let fp =
    if checkpoint = None && resume = None then 0
    else Checkpoint.fingerprint db sigma ~use_dependency_graph
  in
  match resume with
  | Some cp when cp.Checkpoint.kind <> Checkpoint.batch_kind ->
    Error
      (Dq_error.Invalid_input
         (Printf.sprintf
            "checkpoint kind %S was written by a different engine \
             (this engine reads %S)"
            cp.Checkpoint.kind Checkpoint.batch_kind))
  | Some cp when cp.Checkpoint.fingerprint <> fp ->
    Error
      (Dq_error.Invalid_input
         "checkpoint does not match this input (data, ruleset or \
          configuration changed)")
  | _ -> (
    let rel = Relation.copy db in
    let eq =
      Option.map
        (fun cp ->
          Eqclass.restore
            ~original:(fun ~tid ~attr ->
              Tuple.get (Relation.find_exn rel tid) attr)
            cp.Checkpoint.eq)
        resume
    in
    let st =
      Trace.span ~cat:"phase" ~phases ~timer:m_t_init "init" (fun () ->
          init_state ?eq rel sigma ~use_dependency_graph)
    in
    let steps = ref 0 in
    let rescans = ref 0 in
    let pass_no = ref 0 in
    (match resume with
    | None -> ()
    | Some cp ->
      steps := cp.Checkpoint.counters.steps;
      rescans := cp.Checkpoint.counters.rescans;
      pass_no := cp.Checkpoint.counters.pass;
      st.merges <- cp.Checkpoint.counters.merges;
      st.rhs_fixes <- cp.Checkpoint.counters.rhs_fixes;
      st.lhs_fixes <- cp.Checkpoint.counters.lhs_fixes;
      st.nulls_introduced <- cp.Checkpoint.counters.nulls_introduced;
      List.iter (Provenance.record st.trail) cp.Checkpoint.trail);
    let budget = 20 * (Eqclass.n_cells st.eq + 1) in
    let degraded = ref None in
    let progress_fraction () =
      let s = float_of_int !steps
      and q = float_of_int (Heap.length st.queue) in
      if s = 0. && q = 0. then 1. else s /. Float.max 1. (s +. q)
    in
    let write_checkpoint () =
      match checkpoint with
      | Some path ->
        Checkpoint.save path
          {
            Checkpoint.kind = Checkpoint.batch_kind;
            fingerprint = fp;
            use_dependency_graph;
            counters =
              {
                Checkpoint.pass = !pass_no;
                steps = !steps;
                rescans = !rescans;
                merges = st.merges;
                rhs_fixes = st.rhs_fixes;
                lhs_fixes = st.lhs_fixes;
                nulls_introduced = st.nulls_introduced;
              };
            eq = Eqclass.snapshot st.eq;
            trail = Provenance.entries st.trail;
          }
      | None -> ()
    in
    (* One resolution pass: pop-and-apply until the queue verifies clean
       (or the step budget trips).  Instantiation and quiescence rescans
       separate passes, so each pass is one drain of the violation
       queue.  A wall-clock deadline is polled every 1024 steps —
       pass-count deadlines are only ever checked at boundaries, so they
       stay exactly reproducible. *)
    let rec drain () =
      if !steps > budget then
        Error (Dq_error.Internal "Batch_repair.repair: step budget exceeded")
      else if !steps land 1023 = 0 && Deadline.wall_expired deadline then
        Ok `Cut
      else
        match pick_next st with
        | None -> Ok `Drained
        | Some (cid, tid, plan) ->
          st.ctx_clause <- Some (Cfd.name st.sigma.(cid));
          st.ctx_cost <- plan.cost;
          st.ctx_pass <- !steps;
          apply st plan.action;
          (* A wildcard-clause plan resolves the conflict with one
             partner; the tuple may still conflict with others in its
             group, so the pair goes straight back in the queue until it
             verifies clean. *)
          offer st cid tid;
          incr steps;
          Metrics.incr m_steps;
          Progress.emit (fun () ->
              Printf.sprintf
                "batch_repair: pass %d | step %d | %d unresolved | %.0f \
                 steps/s"
                !pass_no !steps (Heap.length st.queue)
                (float_of_int !steps
                /. Float.max 1e-9 (Clock.now () -. started)));
          drain ()
    in
    (* A deadline cut: record why and how far the run got, then
       instantiate once so the written-back targets are complete — the
       anytime result.  A cut before any work on a fresh run has nothing
       usable to return: that is exit code 4's case. *)
    let cut reason =
      if !steps = 0 && resume = None then Error Dq_error.Deadline_exceeded
      else begin
        degraded := Some { Report.reason; progress = progress_fraction () };
        st.ctx_clause <- None;
        st.ctx_cost <- 0.;
        st.ctx_pass <- !steps;
        ignore
          (Trace.span ~cat:"batch" "batch.instantiate" (fun () ->
               instantiate st));
        Ok ()
      end
    in
    let rec drive () =
      incr pass_no;
      let drained =
        Trace.span ~cat:"batch"
          ~args:(fun () ->
            [
              ("pass", Dq_obs.Json.Int !pass_no);
              ("queued", Dq_obs.Json.Int (Heap.length st.queue));
            ])
          "batch.pass" drain
      in
      match drained with
      | Error _ as e -> e
      | Ok `Cut -> cut "deadline expired mid-pass"
      | Ok `Drained -> boundary ()
    (* The pass boundary: the queue has verified clean, so the class
       structure is a consistent cut — the one place a checkpoint can be
       taken and a deadline can stop the run deterministically. *)
    and boundary () =
      st.ctx_clause <- None;
      st.ctx_cost <- 0.;
      st.ctx_pass <- !steps;
      (* Checkpoint first, fault site second: a crash injected at
         ["repair.pass"] (or a kill -9 during its delay action) always
         finds the snapshot of this very boundary already on disk —
         the window the kill-and-resume tests exercise. *)
      write_checkpoint ();
      Fault.hit "repair.pass";
      Deadline.tick deadline;
      if Deadline.expired deadline then
        cut "deadline expired at a pass boundary"
      else if
        Trace.span ~cat:"batch" "batch.instantiate" (fun () ->
            instantiate st)
      then drive ()
      else begin
        (* Quiescent: cross-check the targets with the detector.  The
           incremental dirty propagation is designed to be complete,
           but a missed pair here would silently break Theorem 4.2's
           guarantee, so trust nothing and re-verify.  The detector
           accepts exactly when a rebuild of the buckets and a full
           rescan would offer nothing (DESIGN.md §4b), so those run
           only when it finds a violation. *)
        let missed =
          Trace.span ~cat:"batch" "batch.rescan" (fun () ->
              if Violation.satisfies (effective_relation st) st.sigma then 0
              else begin
                rebuild_buckets st;
                offer_all_violations st
              end)
        in
        if missed > 0 then begin
          incr rescans;
          Metrics.incr m_rescans;
          if !rescans > 50 then
            Error
              (Dq_error.Internal
                 "Batch_repair.repair: rescans not converging")
          else drive ()
        end
        else Ok ()
      end
    in
    let entry =
      match resume with
      | Some _ ->
        (* The checkpoint was taken at a boundary with an empty queue,
           after the initial scan's offers had all been consumed: skip
           the scan and re-enter right at the boundary. *)
        Ok `Resume
      | None -> (
        match
          Trace.span ~cat:"phase" ~phases ~timer:m_t_scan "initial_scan"
            (fun () ->
              Deadline.check deadline;
              ignore (offer_all_violations st))
        with
        | () -> Ok `Fresh
        | exception Deadline.Expired -> Error Dq_error.Deadline_exceeded)
    in
    match entry with
    | Error _ as e -> e
    | Ok entry -> (
      let run () =
        match entry with `Resume -> boundary () | `Fresh -> drive ()
      in
      match
        Trace.span ~cat:"phase" ~phases ~timer:m_t_resolve "resolve" run
      with
      | Error _ as e -> e
      | Ok () ->
        (* Write the target values back into the working copy (lines
           14-15). *)
        let cells_changed = ref 0 in
        Trace.span ~cat:"phase" ~phases ~timer:m_t_write "write_back"
          (fun () ->
            let tuples = Relation.tuples rel in
            Array.iter
              (fun t ->
                let tid = Tuple.tid t in
                for attr = 0 to st.arity - 1 do
                  let v = Eqclass.effective st.eq (cellof st tid attr) in
                  if not (Value.equal v (Tuple.get t attr)) then begin
                    Relation.set_value rel t attr v;
                    incr cells_changed
                  end
                done)
              tuples);
        let stats =
          {
            steps = !steps;
            merges = st.merges;
            rhs_fixes = st.rhs_fixes;
            lhs_fixes = st.lhs_fixes;
            nulls_introduced = st.nulls_introduced;
            cells_changed = !cells_changed;
            runtime = Clock.now () -. started;
          }
        in
        let report =
          Report.make ~engine:"batch_repair"
            ~summary:
              [
                ("steps", Dq_obs.Json.Int stats.steps);
                ("merges", Dq_obs.Json.Int stats.merges);
                ("rhs_fixes", Dq_obs.Json.Int stats.rhs_fixes);
                ("lhs_fixes", Dq_obs.Json.Int stats.lhs_fixes);
                ("nulls_introduced", Dq_obs.Json.Int stats.nulls_introduced);
                ("cells_changed", Dq_obs.Json.Int stats.cells_changed);
              ]
            ~phases:!phases
            ~provenance:(Provenance.entries st.trail)
            ?degraded:!degraded ()
        in
        Ok ((rel, stats), report)))
