(* Differential cross-engine suite: every registered engine must satisfy
   the {!Dq_engine.Engine.ENGINE} contract on random instances — a
   Σ-consistent repair, byte-identical output at any job count, a
   replayable provenance trail — and the opt-fd engine must additionally
   beat (or tie) BATCHREPAIR's cost on its own fragment.  An exhaustive
   oracle checks opt-fd against the cheapest repair that changes only RHS
   cells, each to a value of its attribute's active domain: it is never
   below that optimum, and equal to it when Σ has no chain (an RHS
   attribute on some clause's LHS).  On chains it is one sweep whose cost
   never exceeds batch's, and the unit test below pins a chain where both
   miss the optimum. *)

open Dq_relation
open Dq_cfd
open Dq_core
open Dq_engine
open Helpers.Gen

let satisfiable sigma = Satisfiability.is_satisfiable schema sigma

let engine name =
  match Engine.find name with
  | Ok e -> e
  | Error e -> Alcotest.failf "Engine.find %s: %s" name (Dq_error.to_string e)

let run ?pool ?deadline ?checkpoint ?resume name rel sigma =
  let (module E : Engine.ENGINE) = engine name in
  Helpers.ok2 (E.run (Engine.ctx ?pool ?deadline ?checkpoint ?resume rel sigma))

let repair_of ?pool ?deadline ?checkpoint ?resume name rel sigma =
  fst (fst (run ?pool ?deadline ?checkpoint ?resume name rel sigma))

let all_names = [ "batch"; "inc"; "l-inc"; "w-inc"; "opt-fd" ]

(* ---- generators --------------------------------------------------------- *)

(* A pure-FD acyclic Σ over the fixed A..D attribute order: every clause
   is all-wildcard and its RHS attribute index is strictly greater than
   each LHS index, so the attribute dependency graph can only point
   "rightwards" and is acyclic by construction.  Exactly the opt-fd
   fragment. *)
let fd_clause_gen =
  QCheck.Gen.(
    let* rhs_idx = 1 -- (List.length attrs - 1) in
    let candidates = List.filteri (fun i _ -> i < rhs_idx) attrs in
    let* lhs_size = 1 -- List.length candidates in
    let* perm = shuffle_l candidates in
    let lhs_attrs = List.filteri (fun i _ -> i < lhs_size) perm in
    return
      (Cfd.make schema
         ~lhs:(List.map (fun a -> (a, Pattern.Wild)) lhs_attrs)
         ~rhs:(List.nth attrs rhs_idx, Pattern.Wild)))

let fd_sigma_gen =
  QCheck.Gen.(map (fun l -> Cfd.number l) (list_size (1 -- 5) fd_clause_gen))

let fd_instance = QCheck.make QCheck.Gen.(pair relation_gen fd_sigma_gen)

(* An FD-only Σ split over {A, B} and {C, D}: one clause per half, each
   in a drawn direction, so the ruleset stays acyclic and opt-fd accepts
   it, and the interaction analysis finds two shards. *)
let split_fd_sigma_gen =
  QCheck.Gen.(
    let clause half =
      let* perm = shuffle_l half in
      return
        (Cfd.make schema
           ~lhs:[ (List.nth perm 0, Pattern.Wild) ]
           ~rhs:(List.nth perm 1, Pattern.Wild))
    in
    let* left = clause [ "A"; "B" ] in
    let* right = clause [ "C"; "D" ] in
    return (Cfd.number [ left; right ]))

(* ---- differential properties ------------------------------------------- *)

let prop_all_engines_satisfy =
  QCheck.Test.make
    ~name:"every engine yields a Σ-consistent repair (general Σ)" ~count:80
    instance
    (fun (rel, sigma) ->
      QCheck.assume (satisfiable sigma);
      List.for_all
        (fun name ->
          let (module E : Engine.ENGINE) = engine name in
          match E.fragment schema sigma with
          | Error _ -> true (* rejected up front, nothing to check *)
          | Ok () ->
            let repaired = repair_of name rel sigma in
            Violation.total repaired sigma = 0)
        all_names)

let prop_fd_fragment_differential =
  QCheck.Test.make
    ~name:"every engine repairs the FD-only fragment consistently" ~count:100
    fd_instance
    (fun (rel, sigma) ->
      List.for_all
        (fun name ->
          let (module E : Engine.ENGINE) = engine name in
          (match E.fragment schema sigma with
          | Ok () -> ()
          | Error reason ->
            QCheck.Test.fail_reportf "%s rejected a pure-FD acyclic Σ: %s"
              name reason);
          Violation.total (repair_of name rel sigma) sigma = 0)
        all_names)

let prop_opt_fd_cost_le_batch =
  QCheck.Test.make ~name:"opt-fd cost is at most batch cost on FD-only Σ"
    ~count:150 fd_instance
    (fun (rel, sigma) ->
      let batch = repair_of "batch" rel sigma in
      let opt = repair_of "opt-fd" rel sigma in
      let cost r = Cost.repair_cost ~original:rel ~repair:r in
      if cost opt <= cost batch +. 1e-9 then true
      else
        QCheck.Test.fail_reportf "opt-fd cost %.6f > batch cost %.6f"
          (cost opt) (cost batch))

(* The report must agree as well: summary, provenance trail and degraded
   marker, everything but the phase timings. *)
let prop_engines_jobs_invariant =
  QCheck.Test.make
    ~name:"each engine's repair is byte-identical at jobs 1 and 4" ~count:40
    fd_instance
    (fun (rel, sigma) ->
      List.for_all
        (fun name ->
          let at jobs =
            Dq_parallel.Pool.with_pool ~jobs @@ fun pool ->
            let (repaired, _), report = run ~pool name rel sigma in
            (Csv.save_string repaired, report)
          in
          let csv1, report1 = at 1 and csv4, report4 = at 4 in
          String.equal csv1 csv4 && Dq_obs.Report.equal report1 report4)
        all_names)

let prop_provenance_replays =
  QCheck.Test.make
    ~name:"every engine's provenance trail replays to its repair" ~count:60
    fd_instance
    (fun (rel, sigma) ->
      List.for_all
        (fun name ->
          let (repaired, _), report = run name rel sigma in
          let replayed =
            Dq_obs.Provenance.replay rel report.Dq_obs.Report.provenance
          in
          Relation.dif repaired replayed = 0)
        all_names)

(* ---- unit tests: checkpoint/resume and fault plans ---------------------- *)

let with_tmp f =
  let path = Filename.temp_file "engines" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* Figure-2-style FD ruleset on the shared order schema: acyclic and
   pure-FD, so opt-fd accepts it. *)
let fd_fixture () =
  let rel = Helpers.fig1_db () in
  let sigma =
    Cfd.number
      (List.concat_map
         (Cfd.normalize Helpers.order_schema)
         [ Helpers.phi3; Helpers.phi4 ])
  in
  (rel, sigma)

let test_opt_fd_checkpoint_resume () =
  let rel, sigma = fd_fixture () in
  let direct = Csv.save_string (repair_of "opt-fd" rel sigma) in
  with_tmp @@ fun path ->
  (* Cut after the first stratum: the run is degraded and leaves a
     checkpoint behind... *)
  let (_, _), report =
    run
      ~deadline:(Dq_fault.Deadline.after_passes 1)
      ~checkpoint:{ Engine.path; every = 1 } "opt-fd" rel sigma
  in
  Alcotest.(check bool)
    "first run is degraded" true
    (report.Dq_obs.Report.degraded <> None);
  let cp =
    match Checkpoint.load path with
    | Ok cp -> cp
    | Error e -> Alcotest.failf "checkpoint load: %s" e
  in
  Alcotest.(check string)
    "checkpoint kind" Checkpoint.opt_fd_kind cp.Checkpoint.kind;
  (* ...and resuming from it finishes the job byte-identically. *)
  let resumed = Csv.save_string (repair_of ~resume:cp "opt-fd" rel sigma) in
  Alcotest.(check string) "resume completes the direct repair" direct resumed

let test_cross_engine_resume_refused () =
  let rel, sigma = fd_fixture () in
  with_tmp @@ fun path ->
  let (_ : (Relation.t * string) * Dq_obs.Report.t) =
    run
      ~deadline:(Dq_fault.Deadline.after_passes 1)
      ~checkpoint:{ Engine.path; every = 1 } "opt-fd" rel sigma
  in
  let cp =
    match Checkpoint.load path with
    | Ok cp -> cp
    | Error e -> Alcotest.failf "checkpoint load: %s" e
  in
  let (module Batch : Engine.ENGINE) = engine "batch" in
  match Batch.run (Engine.ctx ~resume:cp rel sigma) with
  | Ok _ -> Alcotest.fail "batch accepted an opt-fd checkpoint"
  | Error e ->
    let msg = Dq_error.to_string e in
    Alcotest.(check bool)
      "refusal names the foreign kind" true
      (Helpers.contains msg "opt-fd-repair")

(* A delay plan must not change any engine's output — fault sites are
   pure interposition points. *)
let test_fault_plan_differential () =
  let rel, sigma = fd_fixture () in
  let plan =
    match Dq_fault.Fault.parse_plan "repair.pass@1:delay 1" with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse_plan: %s" e
  in
  List.iter
    (fun name ->
      let plain = Csv.save_string (repair_of name rel sigma) in
      Dq_fault.Fault.arm plan;
      let faulted =
        Fun.protect ~finally:Dq_fault.Fault.disarm (fun () ->
            Csv.save_string (repair_of name rel sigma))
      in
      Alcotest.(check string)
        (Printf.sprintf "%s output unchanged under a delay plan" name)
        plain faulted)
    all_names

(* A chain: B is the RHS of A -> B and the LHS of B -> C.  opt-fd's
   sweep gives the A = xyz group B = abc and must then change a C, and
   batch pays as much.  Changing the third tuple's B to xbc satisfies Σ
   at half that cost, which l-inc finds.  So opt-fd is optimal only on
   chain-free Σ. *)
let test_opt_fd_not_optimal_on_chains () =
  let schema = Schema.make ~name:"chain" [ "A"; "B"; "C" ] in
  let fd lhs rhs =
    Cfd.make schema ~lhs:[ (lhs, Pattern.Wild) ] ~rhs:(rhs, Pattern.Wild)
  in
  let sigma = Cfd.number [ fd "A" "B"; fd "B" "C" ] in
  let dirty () =
    let rel = Relation.create schema in
    List.iter
      (fun row -> ignore (Relation.insert rel (Array.map Value.string row)))
      [
        [| "xyz"; "xbc"; "abc" |];
        [| "xbc"; "abc"; "xbc" |];
        [| "xyz"; "abc"; "abc" |];
      ];
    rel
  in
  let cost name =
    let rel = dirty () in
    let repaired = repair_of name rel sigma in
    Alcotest.(check int) (name ^ " satisfies Σ") 0 (Violation.total repaired sigma);
    (Cost.repair_cost ~original:rel ~repair:repaired, repaired)
  in
  let opt_fd, _ = cost "opt-fd" and batch, _ = cost "batch" in
  let l_inc, l_inc_repair = cost "l-inc" in
  Alcotest.(check (float 1e-3)) "opt-fd changes two cells" 0.667 opt_fd;
  Alcotest.(check (float 1e-3)) "batch changes two cells" 0.667 batch;
  Alcotest.(check (float 1e-3)) "l-inc changes one" 0.333 l_inc;
  Alcotest.(check string)
    "l-inc sets the third tuple's B to xbc"
    "A,B,C\nxyz,xbc,abc\nxbc,abc,xbc\nxyz,xbc,abc\n"
    (Csv.save_string l_inc_repair)

(* ---- exhaustive oracle ------------------------------------------------- *)

(* Instances small enough to enumerate: 2–4 tuples over A..D with values
   from four strings, and an opt-fd Σ of 1–3 FDs, half of the draws split
   over {A, B} and {C, D} so two-shard rulesets stay in the suite. *)
let oracle_instance_gen =
  QCheck.Gen.(
    let value = map Value.string (oneofl [ "ab"; "abc"; "xbc"; "xyz" ]) in
    let rel =
      map
        (fun rows ->
          let rel = Relation.create schema in
          List.iter (fun row -> ignore (Relation.insert rel row)) rows;
          rel)
        (list_size (2 -- 4) (array_size (return (List.length attrs)) value))
    in
    let fds = map Cfd.number (list_size (1 -- 3) fd_clause_gen) in
    pair rel (oneof [ fds; split_fd_sigma_gen ]))

let print_oracle_instance (rel, sigma) =
  Csv.save_string rel
  ^ String.concat "\n" (Array.to_list (Array.map (Fmt.str "%a" Cfd.pp) sigma))

(* No RHS attribute is on any clause's LHS. *)
let chain_free sigma =
  Array.for_all
    (fun c ->
      Array.for_all (fun c' -> not (Array.mem (Cfd.rhs c) (Cfd.lhs c'))) sigma)
    sigma

(* The cost, by [Cost.repair_cost], of the cheapest repair satisfying Σ
   among those that change only RHS cells, each to a value of its
   attribute's active domain; [None] when there are more than [limit]
   such assignments.  The enumeration cuts a branch once its partial
   cost reaches the best found, since costs only grow.  Some assignment
   always satisfies Σ: every RHS column set to a single value. *)
let oracle_optimum ?(limit = 65_536) rel sigma =
  let tuples = Relation.tuples rel in
  let adom attr =
    List.sort_uniq Value.compare
      (Array.to_list (Array.map (fun t -> Tuple.get t attr) tuples))
  in
  let rhs_attrs =
    List.sort_uniq Int.compare (Array.to_list (Array.map Cfd.rhs sigma))
  in
  let cells =
    List.concat
      (List.init (Array.length tuples) (fun i ->
           List.map (fun a -> (i, a, adom a)) rhs_attrs))
  in
  let space =
    List.fold_left
      (fun acc (_, _, dom) -> min (limit + 1) (acc * List.length dom))
      1 cells
  in
  if space > limit then None
  else begin
    let values =
      Array.map (fun t -> Array.init (Tuple.arity t) (Tuple.get t)) tuples
    in
    let n = Array.length values in
    let satisfied cfd =
      let lhs = Cfd.lhs cfd and rhs = Cfd.rhs cfd in
      let rec pairs i j =
        if i >= n then true
        else if j >= n then pairs (i + 1) (i + 2)
        else if
          Array.for_all (fun a -> Value.equal values.(i).(a) values.(j).(a)) lhs
          && not (Value.equal values.(i).(rhs) values.(j).(rhs))
        then false
        else pairs i (j + 1)
      in
      pairs 0 1
    in
    let best = ref (infinity, [||]) in
    let rec go cost = function
      | [] ->
        if Array.for_all satisfied sigma then
          best := (cost, Array.map Array.copy values)
      | (i, a, dom) :: rest ->
        let t = tuples.(i) in
        List.iter
          (fun v ->
            let cost =
              cost +. Cost.change ~weight:(Tuple.weight t a) (Tuple.get t a) v
            in
            if cost < fst !best then begin
              values.(i).(a) <- v;
              go cost rest
            end)
          dom;
        values.(i).(a) <- Tuple.get t a
    in
    go 0. cells;
    let repair = Relation.create (Relation.schema rel) in
    Array.iteri
      (fun i t ->
        Relation.add repair (Tuple.create ~tid:(Tuple.tid t) (snd !best).(i)))
      tuples;
    Some (Cost.repair_cost ~original:rel ~repair)
  end

let prop_opt_fd_oracle =
  QCheck.Test.make ~count:1000
    ~name:"opt-fd is never below the exhaustive optimum, equal on chain-free Σ"
    (QCheck.make ~print:print_oracle_instance oracle_instance_gen)
    (fun (rel, sigma) ->
      match oracle_optimum rel sigma with
      | None -> true (* too many assignments to enumerate *)
      | Some optimum ->
        let cost =
          Cost.repair_cost ~original:rel ~repair:(repair_of "opt-fd" rel sigma)
        in
        if cost < optimum -. 1e-9 then
          QCheck.Test.fail_reportf "opt-fd cost %.6f below the optimum %.6f"
            cost optimum
        else if chain_free sigma && cost > optimum +. 1e-9 then
          QCheck.Test.fail_reportf
            "opt-fd cost %.6f above the optimum %.6f on chain-free Σ" cost
            optimum
        else true)

let test_unknown_engine () =
  match Engine.find "bogus" with
  | Ok _ -> Alcotest.fail "found an engine named bogus"
  | Error (Dq_error.Unknown_engine { name; known }) ->
    Alcotest.(check string) "name echoed" "bogus" name;
    Alcotest.(check (list string)) "known list" (Engine.names ()) known
  | Error e ->
    Alcotest.failf "wrong error: %s" (Dq_error.to_string e)

let test_fragment_mismatch () =
  let sigma = Helpers.fig1_sigma () in
  match Engine.check_fragment (engine "opt-fd") Helpers.order_schema sigma with
  | Ok () -> Alcotest.fail "opt-fd accepted a constant-pattern Σ"
  | Error (Dq_error.Engine_unsupported { engine; reason }) ->
    Alcotest.(check string) "engine named" "opt-fd" engine;
    Alcotest.(check bool)
      "reason mentions constants" true
      (Helpers.contains reason "constant patterns")
  | Error e -> Alcotest.failf "wrong error: %s" (Dq_error.to_string e)

let test_alias_and_registry () =
  let (module V : Engine.ENGINE) = engine "v-inc" in
  Alcotest.(check string) "v-inc aliases inc" "inc" V.name;
  Alcotest.(check (list string))
    "registry order" all_names (Engine.names ())

let suite =
  [
    Alcotest.test_case "unknown engine is a typed error" `Quick
      test_unknown_engine;
    Alcotest.test_case "opt-fd rejects constant patterns up front" `Quick
      test_fragment_mismatch;
    Alcotest.test_case "v-inc alias and registry names" `Quick
      test_alias_and_registry;
    Alcotest.test_case "opt-fd checkpoint/resume is byte-identical" `Quick
      test_opt_fd_checkpoint_resume;
    Alcotest.test_case "batch refuses an opt-fd checkpoint" `Quick
      test_cross_engine_resume_refused;
    Alcotest.test_case "delay fault plans never change output" `Quick
      test_fault_plan_differential;
    Alcotest.test_case "opt-fd is not optimal on a chain" `Quick
      test_opt_fd_not_optimal_on_chains;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_all_engines_satisfy;
        prop_fd_fragment_differential;
        prop_opt_fd_cost_le_batch;
        prop_engines_jobs_invariant;
        prop_provenance_replays;
        prop_opt_fd_oracle;
      ]
