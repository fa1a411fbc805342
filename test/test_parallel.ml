(* The Dq_parallel pool and the byte-identical-at-any-job-count contract.

   Unit tests pin the pool's own semantics (chunking, exceptions,
   determinism of the merge order, and the whole-job lane [exec] the
   serve daemon runs its ingest jobs on); qcheck properties then check that the
   parallel detection functions agree exactly with their sequential runs
   on random instances, for job counts including odd ones (7) whose
   uneven chunk boundaries would expose any merge-order dependence; and a
   seeded regression pins whole-repair and discovery determinism across
   job counts, including oversubscription (far more jobs than tuples) and
   the degenerate empty/single-tuple relations. *)

open Dq_relation
open Dq_cfd
open Dq_core
open Dq_workload
module Pool = Dq_parallel.Pool

let job_counts = [ 1; 2; 4; 7 ]

(* ---- pool unit tests -------------------------------------------------- *)

let test_ranges () =
  List.iter
    (fun (chunks, n) ->
      let rs = Pool.ranges ~chunks n in
      (* Contiguous cover of [0, n) in order. *)
      let expected_lo = ref 0 in
      List.iter
        (fun (lo, hi) ->
          Alcotest.(check int) "contiguous" !expected_lo lo;
          Alcotest.(check bool) "non-empty" true (hi > lo);
          expected_lo := hi)
        rs;
      Alcotest.(check int) "covers n" n !expected_lo;
      Alcotest.(check bool)
        "at most [chunks] ranges" true
        (List.length rs <= max chunks 1);
      (* Balanced: sizes differ by at most one. *)
      let sizes = List.map (fun (lo, hi) -> hi - lo) rs in
      match sizes with
      | [] -> Alcotest.(check int) "empty only when n = 0" 0 n
      | s :: rest ->
        let mn = List.fold_left min s rest and mx = List.fold_left max s rest in
        Alcotest.(check bool) "balanced" true (mx - mn <= 1))
    [ (1, 10); (3, 10); (4, 4); (7, 3); (16, 5); (2, 0); (5, 1) ]

let test_jobs_validation () =
  Alcotest.check_raises "jobs = 0 rejected"
    (Invalid_argument "Pool.create: jobs must be >= 1 (got 0)") (fun () ->
      ignore (Pool.create ~jobs:0));
  Alcotest.check_raises "negative jobs rejected"
    (Invalid_argument "Pool.create: jobs must be >= 1 (got -3)") (fun () ->
      ignore (Pool.create ~jobs:(-3)))

let test_map_reduce_order () =
  (* The fold must see chunk results in chunk-index order at any job
     count, so collecting (lo, hi) pairs reproduces [ranges] exactly. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun pool ->
      let n = 103 in
      let seen =
        Pool.map_reduce pool ~chunks:jobs ~n
          ~map:(fun lo hi -> [ (lo, hi) ])
          ~fold:(fun acc r -> acc @ r)
          ~init:[]
      in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "chunk-index order (jobs=%d)" jobs)
        (Pool.ranges ~chunks:jobs n) seen)
    job_counts

(* Not a tail call, so the function keeps its frame in the backtrace. *)
let[@inline never] job_raises () =
  if Sys.opaque_identity true then failwith "job failed";
  ()

let test_run_reraises () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  Alcotest.check_raises "task exception reaches the caller" Exit (fun () ->
      Pool.run pool
        (Array.init 8 (fun i -> fun () -> if i = 5 then raise Exit)));
  (* Each task runs inside the [pool.task_busy] timer, and the exception
     still carries the raising task's backtrace. *)
  Printexc.record_backtrace true;
  (match Pool.run pool (Array.init 8 (fun i () -> if i = 5 then job_raises ())) with
  | () -> Alcotest.fail "expected the task's exception"
  | exception Failure _ ->
    let bt = Printexc.get_backtrace () in
    Alcotest.(check bool)
      (Printf.sprintf "backtrace names the raising task:\n%s" bt)
      true
      (Helpers.contains bt "job_raises"));
  (* The pool survives a failed batch. *)
  let total =
    Pool.map_reduce pool ~chunks:4 ~n:100
      ~map:(fun lo hi ->
        let s = ref 0 in
        for i = lo to hi - 1 do
          s := !s + i
        done;
        !s)
      ~fold:( + ) ~init:0
  in
  Alcotest.(check int) "pool usable after exception" 4950 total

let test_shutdown_idempotent () =
  let pool = Pool.create ~jobs:3 in
  Pool.shutdown pool;
  Pool.shutdown pool

(* ---- the whole-job lane ------------------------------------------------ *)

let self () = (Domain.self () :> int)

let test_exec_on_worker () =
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let caller = self () in
  Alcotest.(check bool)
    "the job ran on another domain" true
    (Pool.exec pool self <> caller);
  Alcotest.(check int) "its result comes back" 42 (Pool.exec pool (fun () -> 42))

(* Each job announces that it started, then waits (bounded) for the other
   one to start too: on a pool that ran one job at a time, the first
   would time out before the second began.  The two run on two workers. *)
let test_exec_overlaps () =
  Pool.with_pool ~jobs:3 @@ fun pool ->
  let started = [| Atomic.make false; Atomic.make false |] in
  let seen = [| (false, -1); (false, -1) |] in
  let job i () =
    Atomic.set started.(i) true;
    let deadline = Unix.gettimeofday () +. 5. in
    while
      (not (Atomic.get started.(1 - i))) && Unix.gettimeofday () < deadline
    do
      Unix.sleepf 0.001
    done;
    (Atomic.get started.(1 - i), self ())
  in
  let callers =
    List.map
      (fun i -> Thread.create (fun () -> seen.(i) <- Pool.exec pool (job i)) ())
      [ 0; 1 ]
  in
  List.iter Thread.join callers;
  let (met0, d0), (met1, d1) = (seen.(0), seen.(1)) in
  Alcotest.(check (pair bool bool)) "each job saw the other running"
    (true, true) (met0, met1);
  Alcotest.(check bool) "on two worker domains" true
    (d0 <> d1 && d0 <> self () && d1 <> self ())

let test_exec_backtrace () =
  Printexc.record_backtrace true;
  Pool.with_pool ~jobs:2 @@ fun pool ->
  (match Pool.exec pool job_raises with
  | () -> Alcotest.fail "expected the job's exception"
  | exception Failure msg ->
    let bt = Printexc.get_backtrace () in
    Alcotest.(check string) "message intact" "job failed" msg;
    Alcotest.(check bool)
      (Printf.sprintf "backtrace names the raising job:\n%s" bt)
      true
      (Helpers.contains bt "job_raises"));
  Alcotest.(check int) "pool usable after a failed job" 1
    (Pool.exec pool (fun () -> 1))

let test_exec_inline () =
  let caller = self () in
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "a 1-job pool runs the job inline" caller
        (Pool.exec pool self));
  let pool = Pool.create ~jobs:3 in
  ignore (Pool.exec pool self);
  Pool.shutdown pool;
  Alcotest.(check int) "a shut-down pool runs the job inline" caller
    (Pool.exec pool self)

(* A span the job opens nests under the span that called [exec], though
   it runs on another thread's lane.  A lane is the thread that ran the
   span ([Thread.id]), not its domain. *)
let test_exec_trace_context () =
  let module Trace = Dq_obs.Trace in
  Pool.with_pool ~jobs:2 @@ fun pool ->
  Trace.clear ();
  Trace.set_enabled true;
  let worker, thread =
    Fun.protect
      ~finally:(fun () -> Trace.set_enabled false)
      (fun () ->
        Trace.span "request" (fun () ->
            Pool.exec pool (fun () ->
                Trace.span "job" (fun () ->
                    (self (), Thread.id (Thread.self ()))))))
  in
  let job =
    List.find_opt
      (fun (e : Trace.event) -> e.Trace.ph = `B && e.Trace.name = "job")
      (Trace.events ())
  in
  Trace.clear ();
  Alcotest.(check bool) "ran on a worker" true (worker <> self ());
  match job with
  | None -> Alcotest.fail "the job's span was not recorded"
  | Some e ->
    Alcotest.(check (list string)) "nested under the caller's span"
      [ "request"; "job" ] e.Trace.path;
    Alcotest.(check int) "on the worker's lane" thread e.Trace.tid

(* ---- qcheck: parallel detection = sequential detection ---------------- *)

(* Job-count-independent projection of a violation list; [find_all]'s
   order is canonical, so the projected lists must be equal {e as lists}. *)
let violations_key vs =
  List.map (fun v -> (Cfd.id (Violation.cfd_of v), Violation.tids v)) vs

let counts_key counts =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])

let equivalence_prop name check =
  QCheck.Test.make ~name ~count:60 Helpers.Gen.instance (fun (rel, sigma) ->
      List.for_all
        (fun jobs -> Pool.with_pool ~jobs (fun pool -> check pool rel sigma))
        job_counts)

let prop_find_all =
  equivalence_prop "find_all: parallel = sequential, canonical order"
    (fun pool rel sigma ->
      violations_key (Violation.find_all ~pool rel sigma)
      = violations_key (Violation.find_all rel sigma))

let prop_vio_counts =
  equivalence_prop "vio_counts: parallel = sequential" (fun pool rel sigma ->
      counts_key (Violation.vio_counts ~pool rel sigma)
      = counts_key (Violation.vio_counts rel sigma))

(* ---- seeded regression: whole-pipeline determinism --------------------- *)

(* A small dirty instance from the synthetic workload generator. *)
let dirty_fixture n =
  let ds = Datagen.generate (Datagen.default_params ~n_tuples:n ~seed:11 ()) in
  let noise = Noise.inject (Noise.default_params ~rate:0.08 ~seed:12 ()) ds in
  (noise.Noise.dirty, ds)

(* Everything observable about an incremental repair except wall-clock. *)
let inc_key (repair, (stats : Inc_repair.stats)) =
  ( Csv.save_string repair,
    stats.Inc_repair.tuples_processed,
    stats.Inc_repair.tuples_changed,
    stats.Inc_repair.cells_changed,
    stats.Inc_repair.nulls_introduced )

let check_all_jobs name expected f =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun pool ->
      Alcotest.(check bool)
        (Printf.sprintf "%s identical at jobs=%d" name jobs)
        true
        (f pool = expected))
    job_counts

let test_repair_determinism () =
  let rel, ds = dirty_fixture 300 in
  let sigma = ds.Datagen.sigma in
  let inc = inc_key (Helpers.ok (Inc_repair.repair_dirty rel sigma)) in
  check_all_jobs "Inc_repair.repair_dirty" inc (fun pool ->
      inc_key (Helpers.ok (Inc_repair.repair_dirty ~pool rel sigma)))

let test_discovery_determinism () =
  let _, ds = dirty_fixture 400 in
  let clean = ds.Datagen.dopt in
  let mined rel pool =
    let d = Discovery.discover ?pool rel in
    ( Cfd_parser.to_string d.Discovery.tableaus,
      d.Discovery.n_variable,
      d.Discovery.n_constant )
  in
  let expected = mined clean None in
  check_all_jobs "Discovery.discover" expected (fun pool ->
      mined clean (Some pool))

(* ---- degenerate shapes ------------------------------------------------- *)

let test_oversubscription () =
  (* Far more jobs than tuples: chunks clamp to the tuple count. *)
  let rel = Helpers.fig1_db () in
  let sigma = Helpers.fig1_sigma () in
  let expected = violations_key (Violation.find_all rel sigma) in
  Pool.with_pool ~jobs:16 @@ fun pool ->
  Alcotest.(check bool)
    "find_all with jobs >> tuples" true
    (violations_key (Violation.find_all ~pool rel sigma) = expected);
  Alcotest.(check bool)
    "vio_counts with jobs >> tuples" true
    (counts_key (Violation.vio_counts ~pool rel sigma)
    = counts_key (Violation.vio_counts rel sigma));
  let repair, _ = Helpers.ok (Inc_repair.repair_dirty rel sigma) in
  let repair', _ = Helpers.ok (Inc_repair.repair_dirty ~pool rel sigma) in
  Alcotest.(check int) "repair with jobs >> tuples" 0
    (Relation.dif repair repair')

let test_empty_relation () =
  let rel = Relation.create Helpers.order_schema in
  let sigma = Helpers.fig1_sigma () in
  Pool.with_pool ~jobs:4 @@ fun pool ->
  Alcotest.(check int)
    "no violations in the empty relation" 0
    (List.length (Violation.find_all ~pool rel sigma));
  Alcotest.(check int)
    "vio(empty) = 0" 0
    (Hashtbl.length (Violation.vio_counts ~pool rel sigma))

let test_single_tuple () =
  let rel = Relation.create Helpers.order_schema in
  let values, weights = List.hd Helpers.fig1_rows in
  ignore (Relation.insert ~weights rel values);
  let sigma = Helpers.fig1_sigma () in
  let expected = violations_key (Violation.find_all rel sigma) in
  Pool.with_pool ~jobs:7 @@ fun pool ->
  Alcotest.(check bool)
    "single tuple, 7 jobs" true
    (violations_key (Violation.find_all ~pool rel sigma) = expected)

let suite =
  [
    Alcotest.test_case "ranges partition correctly" `Quick test_ranges;
    Alcotest.test_case "job count validation" `Quick test_jobs_validation;
    Alcotest.test_case "map_reduce folds in chunk order" `Quick
      test_map_reduce_order;
    Alcotest.test_case "run re-raises task exceptions" `Quick test_run_reraises;
    Alcotest.test_case "shutdown is idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "exec runs the job on a worker" `Quick
      test_exec_on_worker;
    Alcotest.test_case "exec overlaps two callers' jobs" `Quick
      test_exec_overlaps;
    Alcotest.test_case "exec re-raises with the job's backtrace" `Quick
      test_exec_backtrace;
    Alcotest.test_case "exec runs inline on 1 job or shut down" `Quick
      test_exec_inline;
    Alcotest.test_case "exec jobs see the caller's trace context" `Quick
      test_exec_trace_context;
    QCheck_alcotest.to_alcotest prop_find_all;
    QCheck_alcotest.to_alcotest prop_vio_counts;
    Alcotest.test_case "repairs identical at any job count" `Quick
      test_repair_determinism;
    Alcotest.test_case "discovery identical at any job count" `Quick
      test_discovery_determinism;
    Alcotest.test_case "jobs >> tuples" `Quick test_oversubscription;
    Alcotest.test_case "empty relation" `Quick test_empty_relation;
    Alcotest.test_case "single tuple" `Quick test_single_tuple;
  ]
