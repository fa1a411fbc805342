open Dq_relation
open Dq_cfd
module Metrics = Dq_obs.Metrics
module Provenance = Dq_obs.Provenance
module Report = Dq_obs.Report
module Trace = Dq_obs.Trace
module Progress = Dq_obs.Progress
module Fault = Dq_fault.Fault
module Deadline = Dq_fault.Deadline

type ordering = Linear | By_violations | By_weight

let ordering_name = function
  | Linear -> "L-IncRepair"
  | By_violations -> "V-IncRepair"
  | By_weight -> "W-IncRepair"

type stats = {
  tuples_processed : int;
  tuples_changed : int;
  cells_changed : int;
  nulls_introduced : int;
  runtime : float;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<h>processed=%d changed=%d cells_changed=%d nulls=%d runtime=%.3fs@]"
    s.tuples_processed s.tuples_changed s.cells_changed s.nulls_introduced
    s.runtime

let m_resolves = Metrics.counter "inc.resolves"

let m_tuples_changed = Metrics.counter "inc.tuples_changed"

let m_t_order = Metrics.timer "inc.phase.order"

let m_t_resolve = Metrics.timer "inc.phase.resolve"

let m_t_core = Metrics.timer "inc.phase.core"

(* Order ΔD for processing.  V-INCREPAIR scores each tuple by the number of
   violations it incurs in D ⊕ ΔD (both against the clean base and against
   its fellow insertions); W-INCREPAIR by descending total weight.  Sorts
   are stable, so ties keep the input order. *)
let order_tuples ?pool ?deadline ordering base delta sigma =
  match ordering with
  | Linear -> delta
  | By_weight ->
    List.stable_sort
      (fun t1 t2 -> Float.compare (Tuple.total_weight t2) (Tuple.total_weight t1))
      delta
  | By_violations ->
    let staging = Relation.copy base in
    List.iter (Relation.add staging) delta;
    let counts = Violation.vio_counts ?pool ?deadline staging sigma in
    let vio t =
      match Hashtbl.find_opt counts (Tuple.tid t) with Some n -> n | None -> 0
    in
    List.stable_sort (fun t1 t2 -> Int.compare (vio t1) (vio t2)) delta

(* The tuples of [delta] must carry tids distinct from [base]'s and from
   each other — a collision would make the provenance trail (and the
   repair itself) ambiguous, so it is rejected up front. *)
let check_delta_tids base delta =
  let seen = Hashtbl.create 64 in
  let bad = ref None in
  List.iter
    (fun t ->
      let tid = Tuple.tid t in
      if !bad = None && (Relation.mem base tid || Hashtbl.mem seen tid) then
        bad := Some tid;
      Hashtbl.replace seen tid ())
    delta;
  match !bad with
  | None -> Ok ()
  | Some tid ->
    Error
      (Dq_error.Invalid_input
         (Printf.sprintf
            "Inc_repair: delta tuple id %d collides with the base relation \
             or an earlier delta tuple"
            tid))

let stats_line ordering stats =
  Format.asprintf "%s: %a" (ordering_name ordering) pp_stats stats

let span base delta sigma f =
  Trace.span ~cat:"engine"
    ~args:(fun () ->
      [
        ("base", Dq_obs.Json.Int (Relation.cardinality base));
        ("delta", Dq_obs.Json.Int (List.length delta));
        ("clauses", Dq_obs.Json.Int (Array.length sigma));
      ])
    "inc_repair" f

(* The insertion loop every entry point shares: resolve [delta] into the
   environment's relation in place.  [started] is when the caller began,
   so [runtime] covers its setup too. *)
let run ~started ~phases ?pool ~ordering ~deadline env delta =
  let repr = Tuple_resolve.relation env in
  match check_delta_tids repr delta with
  | Error _ as e -> e
  | Ok () ->
    match
      Report.phase_m phases "order" m_t_order (fun () ->
          order_tuples ?pool ~deadline ordering repr delta
            (Tuple_resolve.sigma env))
    with
    | exception Deadline.Expired -> Error Dq_error.Deadline_exceeded
    | delta -> (
      let schema = Relation.schema repr in
      let trail = Provenance.create () in
      let tuples_changed = ref 0 in
      let cells_changed = ref 0 in
      let nulls = ref 0 in
      let n_delta = List.length delta in
      (* First delta position left unresolved because the deadline expired;
         [None] when the run completed. *)
      let cut_at = ref None in
      Report.phase_m phases "resolve" m_t_resolve (fun () ->
          List.iteri
            (fun pass t ->
              if !cut_at <> None then
                (* Past the deadline: the rest of the delta is appended
                   unrepaired, so the caller still gets a complete (if
                   possibly still violating) relation. *)
                Tuple_resolve.add env (Tuple.copy t)
              else if Deadline.expired deadline then begin
                cut_at := Some pass;
                Tuple_resolve.add env (Tuple.copy t)
              end
              else begin
                Fault.hit "resolve.tuple";
                let rt =
                  Trace.span ~cat:"inc"
                    ~args:(fun () ->
                      [
                        ("tid", Dq_obs.Json.Int (Tuple.tid t));
                        ("pass", Dq_obs.Json.Int pass);
                      ])
                    "tupleresolve"
                    (fun () -> Tuple_resolve.resolve env t)
                in
                Metrics.incr m_resolves;
                Progress.emit (fun () ->
                    Printf.sprintf
                      "inc_repair: tuple %d/%d | %d changed | %.0f tuples/s"
                      (pass + 1) n_delta !tuples_changed
                      (float_of_int (pass + 1)
                      /. Float.max 1e-9 (Unix.gettimeofday () -. started)));
                let diffs = Tuple.diff_positions t rt in
                if diffs <> [] then begin
                  incr tuples_changed;
                  Metrics.incr m_tuples_changed
                end;
                cells_changed := !cells_changed + List.length diffs;
                List.iter
                  (fun pos ->
                    let old_value = Tuple.get t pos in
                    let new_value = Tuple.get rt pos in
                    if Value.is_null new_value then incr nulls;
                    Provenance.record trail
                      {
                        Provenance.tid = Tuple.tid t;
                        attr = pos;
                        attr_name = Schema.attribute schema pos;
                        old_value;
                        new_value;
                        clause = None;
                        cost_delta =
                          Tuple.weight t pos
                          *. Cost.similarity old_value new_value;
                        pass;
                      })
                  diffs;
                Tuple_resolve.add env rt;
                Deadline.tick deadline
              end)
            delta);
      match !cut_at with
      | Some 0 -> Error Dq_error.Deadline_exceeded
      | cut ->
        let processed =
          match cut with Some p -> p | None -> n_delta
        in
        let degraded =
          Option.map
            (fun p ->
              {
                Report.reason = "deadline expired";
                progress = float_of_int p /. float_of_int (max 1 n_delta);
              })
            cut
        in
        let stats =
          {
            tuples_processed = processed;
            tuples_changed = !tuples_changed;
            cells_changed = !cells_changed;
            nulls_introduced = !nulls;
            runtime = Unix.gettimeofday () -. started;
          }
        in
        let report =
          Report.make ~engine:"inc_repair"
            ~summary:
              [
                ("ordering", Dq_obs.Json.String (ordering_name ordering));
                ("tuples_processed", Dq_obs.Json.Int stats.tuples_processed);
                ("tuples_changed", Dq_obs.Json.Int stats.tuples_changed);
                ("cells_changed", Dq_obs.Json.Int stats.cells_changed);
                ("nulls_introduced", Dq_obs.Json.Int stats.nulls_introduced);
              ]
            ~phases:!phases
            ~provenance:(Provenance.entries trail)
            ?degraded ()
        in
        Ok (stats, report))

let insert ?(ordering = By_violations) ?(deadline = Deadline.never) env delta =
  let started = Unix.gettimeofday () in
  span (Tuple_resolve.relation env) delta (Tuple_resolve.sigma env)
  @@ fun () -> run ~started ~phases:(ref []) ~ordering ~deadline env delta

(* The CLI's entry points: one fresh relation, one environment over it,
   then the same loop a serve session runs batch by batch. *)
let repair_fresh ~started ~phases ?pool ?k ?max_candidates ?use_cluster_index
    ?(ordering = By_violations) ?(deadline = Deadline.never) repr delta sigma =
  let env =
    Tuple_resolve.make_env ?k ?max_candidates ?use_cluster_index repr sigma
  in
  run ~started ~phases ?pool ~ordering ~deadline env delta
  |> Result.map (fun (stats, report) -> ((repr, stats), report))

let repair_inserts ?pool ?k ?max_candidates ?use_cluster_index ?ordering
    ?deadline base delta sigma =
  let started = Unix.gettimeofday () in
  span base delta sigma @@ fun () ->
  repair_fresh ~started ~phases:(ref []) ?pool ?k ?max_candidates
    ?use_cluster_index ?ordering ?deadline (Relation.copy base) delta sigma

let consistent_core ?pool ?deadline rel sigma =
  let counts = Violation.vio_counts ?pool ?deadline rel sigma in
  Relation.fold
    (fun acc t ->
      if Hashtbl.mem counts (Tuple.tid t) then acc else Tuple.tid t :: acc)
    [] rel
  |> List.rev

let repair_dirty ?pool ?k ?max_candidates ?use_cluster_index ?ordering
    ?deadline rel sigma =
  let phases = ref [] in
  match
    Report.phase_m phases "core" m_t_core (fun () ->
        consistent_core ?pool ?deadline rel sigma)
  with
  | exception Deadline.Expired -> Error Dq_error.Deadline_exceeded
  | core ->
    let core_set = Hashtbl.create (List.length core) in
    List.iter (fun tid -> Hashtbl.add core_set tid ()) core;
    let base = Relation.create (Relation.schema rel) in
    let delta = ref [] in
    Relation.iter
      (fun t ->
        if Hashtbl.mem core_set (Tuple.tid t) then
          Relation.add base (Tuple.copy t)
        else delta := Tuple.copy t :: !delta)
      rel;
    let delta = List.rev !delta in
    span base delta sigma @@ fun () ->
    repair_fresh ~started:(Unix.gettimeofday ()) ~phases ?pool ?k
      ?max_candidates ?use_cluster_index ?ordering ?deadline base delta sigma
