(* The fault-tolerance layer: fault injection, deadlines, crash-safe
   I/O, and checkpoint/resume.  The kill-and-resume tests are the
   heart: a batch repair killed at a pass boundary and resumed from
   its checkpoint must be byte-identical to the same run left
   uninterrupted. *)
open Dq_relation
open Dq_core
module Pool = Dq_parallel.Pool
module Fault = Dq_fault.Fault
module Deadline = Dq_fault.Deadline
module Atomic_io = Dq_fault.Atomic_io
open Dq_workload

let job_counts = [ 1; 2; 4; 7 ]

(* Every test disarms on exit so an assertion failure cannot leak an
   armed plan into later suites. *)
let with_plan plan f =
  match Fault.parse_plan plan with
  | Error msg -> Alcotest.failf "parse_plan %S: %s" plan msg
  | Ok specs ->
    Fault.arm specs;
    Fun.protect ~finally:Fault.disarm f

let in_temp_file f =
  let path = Filename.temp_file "dataqual" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* ---- plan grammar ----------------------------------------------------- *)

let test_parse_plan () =
  (match Fault.parse_plan "io.write@1" with
  | Ok [ { Fault.site = "io.write"; hits = 1; action = Fault.Raise } ] -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error msg -> Alcotest.fail msg);
  (match Fault.parse_plan "pool.task@3:delay 50,csv.load@2:raise" with
  | Ok
      [
        { Fault.site = "pool.task"; hits = 3; action = Fault.Delay d };
        { site = "csv.load"; hits = 2; action = Fault.Raise };
      ] ->
    Alcotest.(check (float 1e-9)) "50ms" 0.05 d
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun bad ->
      match Fault.parse_plan bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error _ -> ())
    [ ""; "site"; "site@"; "site@0"; "site@-1"; "site@1:boom"; "@1"; "site@1:delay" ]

let test_hit_fires_kth () =
  with_plan "x@3" @@ fun () ->
  Fault.hit "x";
  Fault.hit "y";
  Fault.hit "x";
  (match Fault.hit "x" with
  | () -> Alcotest.fail "third hit should raise"
  | exception Fault.Injected site -> Alcotest.(check string) "site" "x" site);
  (* Counters stay spent: the site does not re-fire. *)
  Fault.hit "x"

let test_disarmed_is_noop () =
  Fault.disarm ();
  Alcotest.(check bool) "not armed" false (Fault.armed ());
  Fault.hit "io.write";
  Fault.hit "no.such.site"

let test_delay_continues () =
  with_plan "slow@1:delay 10" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  Fault.hit "slow";
  Alcotest.(check bool)
    "slept >= 10ms" true
    (Unix.gettimeofday () -. t0 >= 0.009)

(* ---- deadlines -------------------------------------------------------- *)

let test_deadline_units () =
  Alcotest.(check bool) "never" false (Deadline.expired Deadline.never);
  Deadline.tick Deadline.never;
  Alcotest.(check bool) "after 0 expired" true
    (Deadline.expired (Deadline.after 0.));
  Alcotest.(check bool) "after 1h alive" false
    (Deadline.expired (Deadline.after 3600.));
  let d = Deadline.after_passes 2 in
  Alcotest.(check bool) "fresh" false (Deadline.expired d);
  Alcotest.(check bool) "logical is not wall" false
    (Deadline.wall_expired d);
  Deadline.tick d;
  Alcotest.(check bool) "one tick" false (Deadline.expired d);
  Deadline.tick d;
  Alcotest.(check bool) "two ticks" true (Deadline.expired d);
  Alcotest.check_raises "check raises" Deadline.Expired (fun () ->
      Deadline.check d)

(* ---- Atomic_io -------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_atomic_write () =
  in_temp_file @@ fun path ->
  Atomic_io.write_file path "first";
  Alcotest.(check string) "writes" "first" (read_file path);
  Atomic_io.write_file path "second";
  Alcotest.(check string) "overwrites" "second" (read_file path);
  (* A fault in the crash window (staged but unpublished) leaves the
     previous contents untouched and no temp litter behind. *)
  let dir_entries () =
    Array.to_list (Sys.readdir (Filename.dirname path))
    |> List.filter (fun f -> String.length f > 0 && f.[0] = '.')
    |> List.length
  in
  let dots = dir_entries () in
  with_plan "io.write@1" (fun () ->
      Alcotest.check_raises "injected" (Fault.Injected "io.write") (fun () ->
          Atomic_io.write_file path "third"));
  Alcotest.(check string) "intact after fault" "second" (read_file path);
  Alcotest.(check int) "no temp litter" dots (dir_entries ())

(* ---- pool robustness -------------------------------------------------- *)

let test_pool_first_failure_wins () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun pool ->
      (* Only task 3 raises; the exception (with its backtrace) reaches
         the caller at every job count and the pool stays usable. *)
      match
        Pool.run pool
          (Array.init 16 (fun i -> fun () -> if i = 3 then failwith "boom"))
      with
      | () -> Alcotest.failf "jobs=%d: expected the failure to surface" jobs
      | exception Failure msg ->
        Alcotest.(check string)
          (Printf.sprintf "message intact (jobs=%d)" jobs)
          "boom" msg;
        Pool.run pool (Array.init 8 (fun _ -> fun () -> ())))
    job_counts

let test_pool_fault_site () =
  Pool.with_pool ~jobs:2 @@ fun pool ->
  with_plan "pool.task@2" @@ fun () ->
  match Pool.run pool (Array.init 4 (fun _ -> fun () -> ())) with
  | () -> Alcotest.fail "expected pool.task injection"
  | exception Fault.Injected site ->
    Alcotest.(check string) "site" "pool.task" site

let test_pool_deadline_skips () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun pool ->
      let ran = Atomic.make 0 in
      (match
         Pool.run ~deadline:(Deadline.after 0.) pool
           (Array.init 32 (fun _ -> fun () -> Atomic.incr ran))
       with
      | () -> Alcotest.failf "jobs=%d: expired deadline must raise" jobs
      | exception Deadline.Expired -> ());
      Alcotest.(check int)
        (Printf.sprintf "no task started (jobs=%d)" jobs)
        0 (Atomic.get ran);
      (* The batch drained: the pool accepts the next batch. *)
      Pool.run pool (Array.init 4 (fun _ -> fun () -> ())))
    job_counts

let prop_pool_never_hangs =
  (* Batches mixing normal, raising and delaying tasks always terminate:
     either cleanly or with the first failure re-raised.  Termination
     itself is the property — a hang fails the suite's timeout. *)
  let spec =
    QCheck.Gen.(
      pair (oneofl job_counts)
        (list_size (1 -- 20) (oneofl [ `Ok; `Raise; `Delay ])))
  in
  QCheck.Test.make ~name:"raising/delayed tasks never hang" ~count:40
    (QCheck.make spec) (fun (jobs, kinds) ->
      Pool.with_pool ~jobs @@ fun pool ->
      let tasks =
        Array.of_list
          (List.map
             (fun kind () ->
               match kind with
               | `Ok -> ()
               | `Raise -> raise Exit
               | `Delay -> Unix.sleepf 0.001)
             kinds)
      in
      match Pool.run pool tasks with
      | () -> not (List.mem `Raise kinds)
      | exception Exit -> List.mem `Raise kinds)

(* ---- batch repair: deadlines ------------------------------------------ *)

let dirty_fixture n =
  let ds = Datagen.generate (Datagen.default_params ~n_tuples:n ~seed:11 ()) in
  let noise = Noise.inject (Noise.default_params ~rate:0.08 ~seed:12 ()) ds in
  (noise.Noise.dirty, ds.Datagen.sigma)

let batch_key (repair, (stats : Batch_repair.stats)) =
  ( Csv.save_string repair,
    stats.Batch_repair.steps,
    stats.Batch_repair.merges,
    stats.Batch_repair.rhs_fixes,
    stats.Batch_repair.lhs_fixes,
    stats.Batch_repair.nulls_introduced,
    stats.Batch_repair.cells_changed )

let degraded_of = function
  | Ok (_, report) -> report.Dq_obs.Report.degraded
  | Error e -> Alcotest.failf "engine error: %s" (Dq_error.to_string e)

let test_batch_deadline_determinism () =
  let rel, sigma = dirty_fixture 250 in
  (* A pass-count cut is deterministic: the same k yields the same bytes
     on every run, and a cut run is marked degraded. *)
  let cut k =
    let r = Batch_repair.repair ~deadline:(Deadline.after_passes k) rel sigma in
    (batch_key (Helpers.ok r), degraded_of r <> None)
  in
  let k1, d1 = cut 1 in
  Alcotest.(check bool) "cut at pass 1 identical" true ((k1, d1) = cut 1);
  Alcotest.(check bool) "cut run is degraded" true d1;
  (* A budget the run never exhausts leaves the result — and the absence
     of a degraded marker — untouched. *)
  let full = batch_key (Helpers.ok (Batch_repair.repair rel sigma)) in
  let huge, dh = cut 10_000 in
  Alcotest.(check bool) "unreached budget = no deadline" true (full = huge);
  Alcotest.(check bool) "not degraded" false dh

let test_batch_deadline_zero () =
  let rel, sigma = dirty_fixture 100 in
  match Batch_repair.repair ~deadline:(Deadline.after 0.) rel sigma with
  | Error Dq_error.Deadline_exceeded -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Dq_error.to_string e)
  | Ok _ -> Alcotest.fail "nothing ran, so nothing usable exists"

(* ---- batch repair: checkpoint / resume -------------------------------- *)

(* A plain run — no checkpoint, no resume, no deadline — is the baseline
   every kill-and-resume comparison is against. *)
let plain_run rel sigma = batch_key (Helpers.ok (Batch_repair.repair rel sigma))

let checkpointing_run rel sigma path =
  Helpers.ok
    (Batch_repair.repair ~checkpoint:{ Batch_repair.path; every = 1 } rel sigma)

let last_boundary path =
  match Checkpoint.load path with
  | Ok cp -> cp.Checkpoint.counters.pass
  | Error msg -> Alcotest.failf "checkpoint unreadable: %s" msg

let test_kill_resume_identity () =
  let rel, sigma = dirty_fixture 250 in
  let full = plain_run rel sigma in
  in_temp_file @@ fun path ->
  (* Kill the run at the first pass boundary via the repair.pass fault
     site, which fires just {e after} the boundary's checkpoint is
     written — the crash window resume exists for. *)
  (match
     with_plan "repair.pass@1" (fun () ->
         Batch_repair.repair
           ~checkpoint:{ Batch_repair.path; every = 1 }
           rel sigma)
   with
  | exception Fault.Injected "repair.pass" -> ()
  | exception e -> raise e
  | Ok _ -> Alcotest.fail "fault should have killed the run"
  | Error e -> Alcotest.failf "wrong error: %s" (Dq_error.to_string e));
  Alcotest.(check int) "killed after checkpoint 1" 1 (last_boundary path);
  let cp =
    match Checkpoint.load path with
    | Ok cp -> cp
    | Error msg -> Alcotest.failf "checkpoint unreadable: %s" msg
  in
  let resumed =
    batch_key
      (Helpers.ok
         (Batch_repair.repair ~resume:cp
            ~checkpoint:{ Batch_repair.path; every = 1 }
            rel sigma))
  in
  Alcotest.(check bool) "kill+resume = plain run" true (resumed = full)

let test_deadline_cut_resume_identity () =
  (* Same prefix property via deadlines instead of faults: cut at pass k,
     resume from the checkpoint, land on the plain run's bytes. *)
  let rel, sigma = dirty_fixture 250 in
  let full = plain_run rel sigma in
  in_temp_file @@ fun path ->
  let _cut =
    Helpers.ok
      (Batch_repair.repair
         ~deadline:(Deadline.after_passes 1)
         ~checkpoint:{ Batch_repair.path; every = 1 }
         rel sigma)
  in
  let cp =
    match Checkpoint.load path with
    | Ok cp -> cp
    | Error msg -> Alcotest.failf "checkpoint unreadable: %s" msg
  in
  let resumed =
    batch_key
      (Helpers.ok
         (Batch_repair.repair ~resume:cp
            ~checkpoint:{ Batch_repair.path; every = 1 }
            rel sigma))
  in
  Alcotest.(check bool) "deadline cut + resume = plain run" true (resumed = full)

(* A checkpoint whose targets leave Σ violated: the queue it resumes
   with is empty, so only the check at the first boundary can find the
   violation, re-offer it and get it repaired.  Σ = [A] -> [B] with row
   (a || b); the tuple (a, c) has its B class committed to c. *)
let test_resume_quiescence_finds_violation () =
  let module Cfd = Dq_cfd.Cfd in
  let module Pattern = Dq_cfd.Pattern in
  let schema = Schema.make ~name:"r" [ "A"; "B" ] in
  let rel = Relation.create schema in
  ignore (Relation.insert rel [| Value.string "a"; Value.string "c" |]);
  let sigma =
    Cfd.number
      [
        Cfd.make schema
          ~lhs:[ ("A", Pattern.const (Value.string "a")) ]
          ~rhs:("B", Pattern.const (Value.string "b"));
      ]
  in
  let eq =
    Eqclass.create ~arity:2 ~original:(fun ~tid ~attr ->
        Tuple.get (Relation.find_exn rel tid) attr)
  in
  ignore (Eqclass.cell eq ~tid:0 ~attr:0);
  Eqclass.set_target eq
    (Eqclass.cell eq ~tid:0 ~attr:1)
    (Eqclass.Const (Value.string "c"));
  let cp =
    {
      Checkpoint.kind = Checkpoint.batch_kind;
      fingerprint = Checkpoint.fingerprint rel sigma ~use_dependency_graph:true;
      use_dependency_graph = true;
      counters =
        {
          Checkpoint.pass = 1;
          steps = 0;
          rescans = 0;
          merges = 0;
          rhs_fixes = 0;
          lhs_fixes = 0;
          nulls_introduced = 0;
        };
      eq = Eqclass.snapshot eq;
      trail = [];
    }
  in
  let result = ref None in
  let rescans =
    Helpers.rescans_during (fun () ->
        result := Some (Helpers.ok (Batch_repair.repair ~resume:cp rel sigma)))
  in
  Alcotest.(check int) "the first boundary finds the violation" 1 rescans;
  match !result with
  | None -> Alcotest.fail "no result"
  | Some (repaired, stats) ->
    Alcotest.(check int) "re-offered and resolved" 1 stats.Batch_repair.steps;
    Alcotest.(check bool) "the repair satisfies Σ" true
      (Dq_cfd.Violation.satisfies repaired sigma)

let test_checkpoint_load_errors () =
  (match Checkpoint.load "/no/such/file.ckpt" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must be an Error");
  in_temp_file (fun path ->
      Atomic_io.write_file path "not json";
      match Checkpoint.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage must be an Error");
  in_temp_file (fun path ->
      Atomic_io.write_file path "{\"version\": 999}";
      match Checkpoint.load path with
      | Error msg ->
        Alcotest.(check bool)
          "mentions version" true
          (String.length msg > 0)
      | Ok _ -> Alcotest.fail "future version must be an Error");
  (* A class cell outside the relation's cell range is refused at load,
     before anything could index by it. *)
  let rel, sigma = dirty_fixture 40 in
  in_temp_file (fun path ->
      ignore (checkpointing_run rel sigma path);
      let cp =
        match Checkpoint.load path with
        | Ok cp -> cp
        | Error msg -> Alcotest.failf "checkpoint unreadable: %s" msg
      in
      let eq = cp.Checkpoint.eq in
      let bad =
        match eq.Eqclass.snap_classes with
        | c :: rest ->
          { c with Eqclass.cls_members = (-1, 0) :: c.Eqclass.cls_members }
          :: rest
        | [] -> Alcotest.fail "empty snapshot"
      in
      Checkpoint.save path
        { cp with Checkpoint.eq = { eq with Eqclass.snap_classes = bad } };
      match Checkpoint.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a negative cell must be an Error")

let test_resume_fingerprint_mismatch () =
  let rel, sigma = dirty_fixture 120 in
  in_temp_file @@ fun path ->
  let _ = checkpointing_run rel sigma path in
  let cp =
    match Checkpoint.load path with
    | Ok cp -> cp
    | Error msg -> Alcotest.failf "checkpoint unreadable: %s" msg
  in
  let other, other_sigma = dirty_fixture 130 in
  match Batch_repair.repair ~resume:cp other other_sigma with
  | Error (Dq_error.Invalid_input _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Dq_error.to_string e)
  | Ok _ -> Alcotest.fail "mismatched inputs must be rejected"

let test_checkpointing_unchanged () =
  (* Checkpointing only observes: an uninterrupted checkpointing run
     makes the same decisions as a plain run. *)
  let rel, sigma = dirty_fixture 250 in
  let plain = plain_run rel sigma in
  Alcotest.(check bool) "plain run stable" true (plain_run rel sigma = plain);
  Alcotest.(check bool)
    "checkpointing run = plain run" true
    (in_temp_file (fun p -> batch_key (checkpointing_run rel sigma p)) = plain)

(* ---- incremental repair: deadlines ------------------------------------ *)

let test_inc_deadline_degrades () =
  let rel, sigma = dirty_fixture 200 in
  let full = Helpers.ok (Inc_repair.repair_dirty rel sigma) in
  let _, (full_stats : Inc_repair.stats) = full in
  let n = full_stats.Inc_repair.tuples_processed in
  Alcotest.(check bool) "fixture has dirty tuples" true (n > 2);
  let k = n / 2 in
  (* One tick per resolved tuple: budget k resolves exactly k tuples. *)
  let r = Inc_repair.repair_dirty ~deadline:(Deadline.after_passes k) rel sigma in
  let (repaired, stats), report = Helpers.ok2 r in
  Alcotest.(check int) "processed exactly k" k stats.Inc_repair.tuples_processed;
  Alcotest.(check int)
    "every tuple still present"
    (Relation.cardinality rel)
    (Relation.cardinality repaired);
  match report.Dq_obs.Report.degraded with
  | Some d ->
    Alcotest.(check bool) "progress in (0,1)" true
      (d.Dq_obs.Report.progress > 0. && d.Dq_obs.Report.progress < 1.)
  | None -> Alcotest.fail "cut inc repair must be degraded"

let test_inc_deadline_zero () =
  let rel, sigma = dirty_fixture 100 in
  match Inc_repair.repair_dirty ~deadline:(Deadline.after 0.) rel sigma with
  | Error Dq_error.Deadline_exceeded -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Dq_error.to_string e)
  | Ok _ -> Alcotest.fail "zero budget must fail outright"

(* ---- sampling: deadlines ---------------------------------------------- *)

let test_sampling_deadline () =
  let rel, sigma = dirty_fixture 100 in
  let repaired, _ = Helpers.ok (Batch_repair.repair rel sigma) in
  let config = Sampling.default_config () in
  match
    Sampling.inspect ~deadline:(Deadline.after 0.) config ~original:rel
      ~repair:repaired ~sigma ~oracle:(fun _ -> false)
  with
  | Error Dq_error.Deadline_exceeded -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Dq_error.to_string e)
  | Ok _ -> Alcotest.fail "no partial verdict exists"

(* ---- resolve.tuple fault site ----------------------------------------- *)

let test_resolve_fault_site () =
  let rel, sigma = dirty_fixture 150 in
  with_plan "resolve.tuple@1" @@ fun () ->
  match Inc_repair.repair_dirty rel sigma with
  | exception Fault.Injected site ->
    Alcotest.(check string) "site" "resolve.tuple" site
  | Ok _ -> Alcotest.fail "expected resolve.tuple injection"
  | Error e -> Alcotest.failf "wrong error: %s" (Dq_error.to_string e)

let suite =
  [
    Alcotest.test_case "plan grammar" `Quick test_parse_plan;
    Alcotest.test_case "hit fires on the k-th execution" `Quick
      test_hit_fires_kth;
    Alcotest.test_case "disarmed hit is a no-op" `Quick test_disarmed_is_noop;
    Alcotest.test_case "delay action continues" `Quick test_delay_continues;
    Alcotest.test_case "deadline units" `Quick test_deadline_units;
    Alcotest.test_case "atomic write survives a fault" `Quick test_atomic_write;
    Alcotest.test_case "pool: first failure wins" `Quick
      test_pool_first_failure_wins;
    Alcotest.test_case "pool: pool.task fault site" `Quick test_pool_fault_site;
    Alcotest.test_case "pool: expired deadline skips tasks" `Quick
      test_pool_deadline_skips;
    QCheck_alcotest.to_alcotest prop_pool_never_hangs;
    Alcotest.test_case "batch: pass-count cut is deterministic" `Slow
      test_batch_deadline_determinism;
    Alcotest.test_case "batch: zero budget fails outright" `Quick
      test_batch_deadline_zero;
    Alcotest.test_case "batch: kill at pass 2, resume, identical" `Slow
      test_kill_resume_identity;
    Alcotest.test_case "batch: deadline cut, resume, identical" `Slow
      test_deadline_cut_resume_identity;
    Alcotest.test_case "batch: a resumed violation is found at quiescence"
      `Quick test_resume_quiescence_finds_violation;
    Alcotest.test_case "checkpoint: load failure modes" `Quick
      test_checkpoint_load_errors;
    Alcotest.test_case "checkpoint: fingerprint mismatch rejected" `Quick
      test_resume_fingerprint_mismatch;
    Alcotest.test_case "batch: checkpointing = plain run" `Slow
      test_checkpointing_unchanged;
    Alcotest.test_case "inc: deadline degrades, keeps all tuples" `Quick
      test_inc_deadline_degrades;
    Alcotest.test_case "inc: zero budget fails outright" `Quick
      test_inc_deadline_zero;
    Alcotest.test_case "sampling: no partial verdict" `Quick
      test_sampling_deadline;
    Alcotest.test_case "inc: resolve.tuple fault site" `Quick
      test_resolve_fault_site;
  ]
