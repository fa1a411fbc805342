open Dq_relation
open Dq_cfd
open Dq_core
module Report = Dq_obs.Report
module Provenance = Dq_obs.Provenance
module Trace = Dq_obs.Trace
module Progress = Dq_obs.Progress
module Fault = Dq_fault.Fault
module Deadline = Dq_fault.Deadline

type stats = {
  strata : int;
  groups : int;
  merges : int;
  cells_changed : int;
  runtime : float;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<h>strata=%d groups=%d merges=%d cells_changed=%d runtime=%.3fs@]"
    s.strata s.groups s.merges s.cells_changed s.runtime

let engine_name = "opt-fd"

(* ---- fragment check ---------------------------------------------------- *)

(* The sweep only terminates in one pass when Σ is pure embedded FDs
   over an acyclic attribute dependency graph: constant patterns
   reintroduce the committed-constant conflicts the topological order is
   there to avoid, and a cycle leaves no order to process strata in.  It
   is optimal only when, besides, no RHS attribute is on an LHS (see the
   interface). *)
let fragment schema sigma =
  match
    Array.to_list sigma
    |> List.find_opt (fun c -> not (Cfd.is_embedded_fd c))
  with
  | Some c ->
    Error
      (Printf.sprintf
         "clause %s has constant patterns; only pure FDs (all-wildcard \
          pattern rows) are supported"
         (Cfd.name c))
  | None -> (
    match Dq_analysis.Interaction.termination schema sigma with
    | Dq_analysis.Interaction.Terminating -> Ok ()
    | Dq_analysis.Interaction.May_oscillate cycles ->
      Error
        (Printf.sprintf
           "the attribute dependency graph has %d cycle%s (run `cfdclean \
            analyze` for the certificates); stratified repair needs an \
            acyclic ruleset"
           (List.length cycles)
           (if List.length cycles = 1 then "" else "s")))

(* ---- the stratified sweep ---------------------------------------------- *)

let repair ?(deadline = Deadline.never) ?checkpoint ?resume db sigma =
  Trace.span ~cat:"engine"
    ~args:(fun () ->
      [
        ("tuples", Dq_obs.Json.Int (Relation.cardinality db));
        ("clauses", Dq_obs.Json.Int (Array.length sigma));
      ])
    "opt_fd_repair"
  @@ fun () ->
  let started = Dq_fault.Clock.now () in
  let schema = Relation.schema db in
  match fragment schema sigma with
  | Error reason -> Error (Dq_error.Engine_unsupported { engine = engine_name; reason })
  | Ok () -> (
    let fp =
      if checkpoint <> None || resume <> None then
        Checkpoint.fingerprint db sigma ~use_dependency_graph:false
      else 0
    in
    match resume with
    | Some cp when cp.Checkpoint.kind <> Checkpoint.opt_fd_kind ->
      Error
        (Dq_error.Invalid_input
           (Printf.sprintf
              "checkpoint kind %S was written by a different engine (this \
               engine reads %S)"
              cp.Checkpoint.kind Checkpoint.opt_fd_kind))
    | Some cp when cp.Checkpoint.fingerprint <> fp ->
      Error
        (Dq_error.Invalid_input
           "checkpoint does not match this input (data, ruleset or \
            configuration changed)")
    | _ ->
      let rel = Relation.copy db in
      let arity = Schema.arity schema in
      let phases = ref [] in
      let original ~tid ~attr = Tuple.get (Relation.find_exn rel tid) attr in
      (* Attribute strata: clauses grouped by RHS attribute, attributes
         ordered by their SCC id — a reverse topological numbering, so
         every attribute a stratum groups on (an edge source) carries a
         smaller id and is processed (or never written) first. *)
      let eq, clauses_of, strata_attrs =
        Trace.span ~cat:"phase" ~phases "init" @@ fun () ->
        let eq =
          match resume with
          | Some cp -> Eqclass.restore ~original cp.Checkpoint.eq
          | None -> Eqclass.create ~arity ~original
        in
        let edges =
          Array.to_list sigma
          |> List.concat_map (fun c ->
                 Array.to_list (Cfd.lhs c)
                 |> List.map (fun b -> (b, Cfd.rhs c)))
        in
        let comp = Depgraph.scc ~n:arity ~edges in
        let clauses_of = Array.make arity [] in
        for cid = Array.length sigma - 1 downto 0 do
          let a = Cfd.rhs sigma.(cid) in
          clauses_of.(a) <- cid :: clauses_of.(a)
        done;
        let strata_attrs =
          List.init arity Fun.id
          |> List.filter (fun a -> clauses_of.(a) <> [])
          |> List.sort (fun a b -> compare (comp.(a), a) (comp.(b), b))
        in
        (eq, clauses_of, strata_attrs)
      in
      let total = List.length strata_attrs in
      let groups = ref 0 in
      let merges = ref 0 in
      let strata_done = ref 0 in
      let trail = Provenance.create () in
      (match resume with
      | Some cp ->
        strata_done := cp.Checkpoint.counters.pass;
        groups := cp.Checkpoint.counters.steps;
        merges := cp.Checkpoint.counters.merges;
        List.iter (Provenance.record trail) cp.Checkpoint.trail
      | None -> ());
      let degraded = ref None in
      let write_checkpoint () =
        match checkpoint with
        | Some path ->
          Checkpoint.save path
            {
              Checkpoint.kind = Checkpoint.opt_fd_kind;
              fingerprint = fp;
              use_dependency_graph = false;
              counters =
                {
                  Checkpoint.pass = !strata_done;
                  steps = !groups;
                  rescans = 0;
                  merges = !merges;
                  rhs_fixes = Provenance.length trail;
                  lhs_fixes = 0;
                  nulls_introduced = 0;
                };
              eq = Eqclass.snapshot eq;
              trail = Provenance.entries trail;
            }
        | None -> ()
      in
      let tuples = Relation.tuples rel in
      (* One stratum: for each FD with this RHS attribute, group tuples
         by their current (already-final) LHS key and union the RHS
         cells of each group; then give every class its weighted-medoid
         member value.  All iteration is in relation/clause order, so
         the result is independent of hash-table history. *)
      let process_stratum stratum_no a =
        Trace.span ~cat:"engine"
          ~args:(fun () -> [ ("attr", Dq_obs.Json.Int a) ])
          "opt_fd.stratum"
        @@ fun () ->
        let cells = ref [] in
        List.iter
          (fun cid ->
            let cfd = sigma.(cid) in
            let lhs = Cfd.lhs cfd in
            let table = Hashtbl.create 64 in
            Array.iter
              (fun t ->
                let tid = Tuple.tid t in
                let key =
                  Array.map
                    (fun b ->
                      Eqclass.effective eq (Eqclass.cell eq ~tid ~attr:b))
                    lhs
                in
                if not (Array.exists Value.is_null key) then begin
                  let c = Eqclass.cell eq ~tid ~attr:a in
                  if not (Value.is_null (Eqclass.effective eq c)) then begin
                    let key = Array.to_list key in
                    match Hashtbl.find_opt table key with
                    | None ->
                      Hashtbl.replace table key c;
                      incr groups;
                      cells := c :: !cells
                    | Some c0 ->
                      if not (Eqclass.same_class eq c0 c) then begin
                        ignore (Eqclass.union eq c0 c);
                        incr merges
                      end;
                      cells := c :: !cells
                  end
                end)
              tuples)
          clauses_of.(a);
        let clause_name =
          match clauses_of.(a) with
          | cid :: _ -> Some (Cfd.name sigma.(cid))
          | [] -> None
        in
        let attr_name = Schema.attribute schema a in
        let seen = Hashtbl.create 64 in
        List.iter
          (fun c ->
            let root = Eqclass.find eq c in
            if not (Hashtbl.mem seen root) then begin
              Hashtbl.replace seen root ();
              match Eqclass.target eq root with
              | Eqclass.Const _ | Eqclass.Null -> ()
              | Eqclass.Unfixed ->
                let members = Eqclass.members eq root in
                (* Value-sorted (value, weight) pairs over the members'
                   original values: the canonical order for the float
                   sums of the medoid scan. *)
                let rec squash = function
                  | (u, wu) :: (v, wv) :: rest when Value.equal u v ->
                    squash ((u, wu +. wv) :: rest)
                  | p :: rest -> p :: squash rest
                  | [] -> []
                in
                let pairs =
                  List.filter_map
                    (fun (tid, attr) ->
                      let t = Relation.find_exn rel tid in
                      let v = Tuple.get t attr in
                      if Value.is_null v then None
                      else Some (v, Tuple.weight t attr))
                    members
                  |> List.sort (fun (u, _) (v, _) -> Value.compare u v)
                  |> squash
                in
                let cost v =
                  List.fold_left
                    (fun acc (u, w_u) -> acc +. (w_u *. Cost.similarity u v))
                    0. pairs
                in
                let best = ref None in
                List.iter
                  (fun (v, _) ->
                    let c = cost v in
                    match !best with
                    | Some (bv, bc)
                      when bc < c || (bc = c && Value.compare bv v <= 0) ->
                      ()
                    | _ -> best := Some (v, c))
                  pairs;
                (match !best with
                | None -> ()
                | Some (v, _) ->
                  Eqclass.set_target eq root (Eqclass.Const v);
                  List.sort
                    (fun (t1, _) (t2, _) -> compare t1 t2)
                    members
                  |> List.iter (fun (tid, attr) ->
                         let t = Relation.find_exn rel tid in
                         let old_v = Tuple.get t attr in
                         if not (Value.equal old_v v) then
                           Provenance.record trail
                             {
                               Provenance.tid;
                               attr;
                               attr_name;
                               old_value = old_v;
                               new_value = v;
                               clause = clause_name;
                               cost_delta =
                                 Cost.change
                                   ~weight:(Tuple.weight t attr)
                                   old_v v;
                               pass = stratum_no;
                             }))
            end)
          (List.rev !cells);
        Progress.emit (fun () ->
            Printf.sprintf
              "opt_fd_repair: stratum %d/%d | %d groups | %d merges"
              stratum_no total !groups !merges)
      in
      (* A deadline cut: nothing usable exists before the first stratum
         of a fresh run; afterwards the completed strata are already a
         consistent prefix of the repair — the anytime result. *)
      let cut () =
        if !strata_done = 0 then Error Dq_error.Deadline_exceeded
        else begin
          degraded :=
            Some
              {
                Report.reason = "deadline expired at a stratum boundary";
                progress = float_of_int !strata_done /. float_of_int total;
              };
          Ok ()
        end
      in
      let rec drive = function
        | [] -> Ok ()
        | a :: rest ->
          if Deadline.wall_expired deadline then cut ()
          else begin
            process_stratum (!strata_done + 1) a;
            incr strata_done;
            (* Checkpoint first, fault site second: a crash injected at
               ["repair.pass"] always finds this boundary's snapshot
               already on disk — same choreography as the batch engine,
               and the window the kill-and-resume tests exercise. *)
            write_checkpoint ();
            Fault.hit "repair.pass";
            Deadline.tick deadline;
            if rest <> [] && Deadline.expired deadline then cut ()
            else drive rest
          end
      in
      let remaining =
        List.filteri (fun i _ -> i >= !strata_done) strata_attrs
      in
      (match
         if Deadline.expired deadline then cut ()
         else
           Trace.span ~cat:"phase" ~phases "resolve" (fun () ->
               drive remaining)
       with
      | Error _ as e -> e
      | Ok () ->
        let cells_changed = ref 0 in
        Trace.span ~cat:"phase" ~phases "write_back" (fun () ->
            Array.iter
              (fun t ->
                let tid = Tuple.tid t in
                for attr = 0 to arity - 1 do
                  let v = Eqclass.effective eq (Eqclass.cell eq ~tid ~attr) in
                  if not (Value.equal v (Tuple.get t attr)) then begin
                    Relation.set_value rel t attr v;
                    incr cells_changed
                  end
                done)
              tuples);
        let stats =
          {
            strata = !strata_done;
            groups = !groups;
            merges = !merges;
            cells_changed = !cells_changed;
            runtime = Dq_fault.Clock.now () -. started;
          }
        in
        let report =
          Report.make ~engine:"opt_fd_repair"
            ~summary:
              [
                ("strata", Dq_obs.Json.Int stats.strata);
                ("strata_total", Dq_obs.Json.Int total);
                ("groups", Dq_obs.Json.Int stats.groups);
                ("merges", Dq_obs.Json.Int stats.merges);
                ("cells_changed", Dq_obs.Json.Int stats.cells_changed);
              ]
            ~phases:!phases
            ~provenance:(Provenance.entries trail)
            ?degraded:!degraded ()
        in
        Ok ((rel, stats), report)))
