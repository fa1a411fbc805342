(* The observability layer: Json rendering, the Metrics registry, the
   Report determinism contract (stable under --jobs), and provenance
   replay — the trail recorded by a repair, applied back to the dirty
   input, must reproduce the repaired relation. *)

open Dq_relation
open Dq_core
open Helpers
module Pool = Dq_parallel.Pool
module Json = Dq_obs.Json
module Metrics = Dq_obs.Metrics
module Report = Dq_obs.Report
module Provenance = Dq_obs.Provenance

(* ---- Json ------------------------------------------------------------- *)

let test_json_render () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.List [ Json.Bool true; Json.Null; Json.String "x\"y" ]);
        ("c", Json.Float 1.5);
      ]
  in
  Alcotest.(check string)
    "minified, construction order"
    {|{"a":1,"b":[true,null,"x\"y"],"c":1.5}|}
    (String.trim (Json.to_string ~minify:true v));
  Alcotest.(check string)
    "non-finite floats render as null" "null"
    (String.trim (Json.to_string ~minify:true (Json.Float Float.nan)));
  Alcotest.(check string)
    "control characters escaped" {|"a\nb\u0001"|}
    (String.trim (Json.to_string ~minify:true (Json.String "a\nb\x01")))

(* ---- Metrics ----------------------------------------------------------- *)

let test_metrics_enabled () =
  Metrics.reset ();
  let c = Metrics.counter "test.obs.counter" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter accumulates" 5 (Metrics.counter_value c);
  let t = Metrics.timer "test.obs.timer" in
  Metrics.record t 0.25;
  Metrics.record t 0.75;
  match Metrics.snapshot () with
  | Json.Obj
      [
        ("counters", Json.Obj cs);
        ("timers", Json.Obj ts);
        ("gauges", Json.Obj _);
        ("histograms", Json.Obj _);
      ] ->
    Alcotest.(check bool) "counter in snapshot" true
      (List.mem_assoc "test.obs.counter" cs);
    (match List.assoc_opt "test.obs.timer" ts with
    | Some (Json.Obj fields) ->
      Alcotest.(check bool) "timer count" true
        (List.assoc_opt "count" fields = Some (Json.Int 2))
    | _ -> Alcotest.fail "timer entry missing or malformed");
    let names = List.map fst cs in
    Alcotest.(check (list string))
      "counters sorted by name"
      (List.sort compare names)
      names
  | _ -> Alcotest.fail "snapshot is not {counters; timers; gauges; histograms}"

(* Counters are monotonic: a negative increment is clamped to a no-op
   (a daemon must not die on a bad delta). *)
let test_metrics_negative_add () =
  Metrics.reset ();
  let c = Metrics.counter "test.obs.neg" in
  Metrics.add c 3;
  Metrics.add c (-2);
  Alcotest.(check int) "negative add clamps to a no-op" 3
    (Metrics.counter_value c)

(* One registry: a name with its labels is one instrument of one kind,
   and asking for it as another kind is refused. *)
let test_metrics_one_kind_per_name () =
  let c = Metrics.counter "test.obs.kind" in
  Alcotest.(check bool) "same handle on re-registration" true
    (c == Metrics.counter "test.obs.kind");
  match Metrics.gauge "test.obs.kind" with
  | _ -> Alcotest.fail "a counter's name was handed back as a gauge"
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      "error names the instrument" true
      (Helpers.contains msg "test.obs.kind")

let test_gauge_semantics () =
  Metrics.reset ();
  let g = Metrics.gauge "test.obs.gauge" in
  Metrics.set_gauge g 5.;
  Metrics.add_gauge g 2.5;
  Metrics.add_gauge g (-1.5);
  Alcotest.(check (float 1e-9)) "set then signed adds" 6.
    (Metrics.gauge_value g);
  (* Adds from pool workers are atomic with respect to each other: 32
     concurrent +1s always sum to exactly 32, at jobs 1 and 4. *)
  List.iter
    (fun jobs ->
      Metrics.set_gauge g 0.;
      Pool.with_pool ~jobs (fun pool ->
          Pool.run pool (Array.init 32 (fun _ () -> Metrics.add_gauge g 1.)));
      Alcotest.(check (float 0.))
        (Printf.sprintf "32 worker adds sum exactly at jobs=%d" jobs)
        32. (Metrics.gauge_value g))
    [ 1; 4 ]

let test_histogram_buckets () =
  Metrics.reset ();
  let h = Metrics.histogram ~buckets:[| 1.; 10.; 100. |] "test.obs.hist" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 5.; 1000. ];
  Alcotest.(check int) "observation count" 4 (Metrics.histogram_count h);
  (* The exposition renders cumulative bucket counts: le="1" holds 0.5
     and the boundary value 1.0 (bounds are inclusive), le="10" adds 5,
     le="100" adds nothing, +Inf catches 1000. *)
  let text = Metrics.to_prometheus ~prefix:"test.obs.hist" () in
  let expected =
    "# TYPE cfdclean_test_obs_hist histogram\n\
     cfdclean_test_obs_hist_bucket{le=\"1\"} 2\n\
     cfdclean_test_obs_hist_bucket{le=\"10\"} 3\n\
     cfdclean_test_obs_hist_bucket{le=\"100\"} 3\n\
     cfdclean_test_obs_hist_bucket{le=\"+Inf\"} 4\n\
     cfdclean_test_obs_hist_sum 1006.5\n\
     cfdclean_test_obs_hist_count 4\n"
  in
  Alcotest.(check string) "cumulative buckets" expected text

(* The exposition golden: stable family ordering, label escaping, the
   counter _total convention, all filtered by instrument-name prefix so
   the rest of the process registry stays out of the comparison. *)
let test_prometheus_exposition () =
  Metrics.reset ();
  let c =
    Metrics.counter
      ~labels:[ ("status", "200"); ("route", "GET /x") ]
      "promtest.requests"
  in
  Metrics.add c 3;
  let g = Metrics.gauge "promtest.live" in
  Metrics.set_gauge g 2.;
  let esc = Metrics.counter ~labels:[ ("k", "a\\b\"c\nd") ] "promtest.esc" in
  Metrics.incr esc;
  let got = Metrics.to_prometheus ~prefix:"promtest." () in
  let expected =
    "# TYPE cfdclean_promtest_esc_total counter\n\
     cfdclean_promtest_esc_total{k=\"a\\\\b\\\"c\\nd\"} 1\n\
     # TYPE cfdclean_promtest_live gauge\n\
     cfdclean_promtest_live 2\n\
     # TYPE cfdclean_promtest_requests_total counter\n\
     cfdclean_promtest_requests_total{route=\"GET /x\",status=\"200\"} 3\n"
  in
  Alcotest.(check string) "exposition golden" expected got;
  (* Labels are canonicalised: the permuted label set names the same
     instrument, so re-registering adds nothing. *)
  let c' =
    Metrics.counter
      ~labels:[ ("route", "GET /x"); ("status", "200") ]
      "promtest.requests"
  in
  Metrics.incr c';
  Alcotest.(check int) "label order canonical" 4 (Metrics.counter_value c)

(* ---- Report ------------------------------------------------------------ *)

let entry =
  {
    Provenance.tid = 3;
    attr = 1;
    attr_name = "CT";
    old_value = Value.of_string "PHI";
    new_value = Value.of_string "NYC";
    clause = Some "phi2";
    cost_delta = 0.5;
    pass = 7;
  }

let test_report_timing_excluded () =
  let r1 =
    Report.make ~engine:"x"
      ~summary:[ ("n", Json.Int 1) ]
      ~phases:[ ("a", 0.5) ]
      ~provenance:[ entry ] ()
  in
  let r2 =
    Report.make ~engine:"x"
      ~summary:[ ("n", Json.Int 1) ]
      ~phases:[ ("a", 0.9); ("b", 0.1) ]
      ~provenance:[ entry ] ()
  in
  Alcotest.(check bool) "equal ignores phases" true (Report.equal r1 r2);
  Alcotest.(check string)
    "stable_json ignores phases"
    (Json.to_string (Report.stable_json r1))
    (Json.to_string (Report.stable_json r2));
  let r3 = Report.make ~engine:"x" ~summary:[ ("n", Json.Int 1) ] () in
  Alcotest.(check bool)
    "provenance is part of equality" false (Report.equal r1 r3)

(* ---- determinism across job counts ------------------------------------ *)

(* INCREPAIR's consistent core and V-ordering chunk [vio_counts] across
   the pool's domains, so its reports are where a job count could show. *)
let job_counts = [ 1; 4; 7 ]

let inc_stable ?pool rel sigma =
  Json.to_string
    (Report.stable_json (ok_report (Inc_repair.repair_dirty ?pool rel sigma)))

let test_report_stable_under_jobs () =
  let db = fig1_db () and sigma = fig1_sigma () in
  let expected = inc_stable db sigma in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun pool ->
      Alcotest.(check string)
        (Printf.sprintf "stable_json identical at jobs=%d" jobs)
        expected
        (inc_stable ~pool db sigma))
    job_counts

let prop_report_stable_under_jobs =
  QCheck.Test.make
    ~name:"Report.stable_json byte-identical across jobs {1,4,7}" ~count:40
    Gen.instance
    (fun (rel, sigma) ->
      QCheck.assume (Dq_cfd.Satisfiability.is_satisfiable Gen.schema sigma);
      let expected = inc_stable rel sigma in
      List.for_all
        (fun jobs ->
          Pool.with_pool ~jobs @@ fun pool ->
          String.equal expected (inc_stable ~pool rel sigma))
        job_counts)

(* ---- provenance replay ------------------------------------------------ *)

(* Every cell that differs between [before] and [after] must be covered
   by a trail entry. *)
let check_changed_cells_covered before after entries =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun e -> Hashtbl.replace covered (e.Provenance.tid, e.Provenance.attr) ())
    entries;
  Relation.iter
    (fun t ->
      match Relation.find before (Tuple.tid t) with
      | None -> ()
      | Some orig ->
        for pos = 0 to Tuple.arity t - 1 do
          if not (Value.equal (Tuple.get orig pos) (Tuple.get t pos)) then
            Alcotest.(check bool)
              (Printf.sprintf "entry for changed cell (t%d, %d)" (Tuple.tid t)
                 pos)
              true
              (Hashtbl.mem covered (Tuple.tid t, pos))
        done)
    after

let test_batch_replay_reconstructs () =
  let db = fig1_db () and sigma = fig1_sigma () in
  let (repaired, _stats), report = ok2 (Batch_repair.repair db sigma) in
  Alcotest.(check bool)
    "repair changed something" true
    (List.length report.Report.provenance > 0);
  check_changed_cells_covered db repaired report.Report.provenance;
  let replayed = Provenance.replay db report.Report.provenance in
  Alcotest.(check string)
    "replay reproduces the repair byte-for-byte"
    (Csv.save_string repaired)
    (Csv.save_string replayed)

let test_inc_replay_reconstructs () =
  let db = fig1_db () and sigma = fig1_sigma () in
  let run ?pool () =
    let (repaired, _stats), report =
      ok2 (Inc_repair.repair_dirty ?pool db sigma)
    in
    check_changed_cells_covered db repaired report.Report.provenance;
    (* repair_dirty reorders tuples (consistent core first), so compare
       tid-by-tid rather than byte-by-byte. *)
    let replayed = Provenance.replay db report.Report.provenance in
    Alcotest.(check int)
      "replay agrees with the repair on every cell" 0
      (Relation.dif repaired replayed)
  in
  run ();
  Pool.with_pool ~jobs:4 (fun pool -> run ~pool ())

(* ---- Json parsing ------------------------------------------------------ *)

let test_json_parse () =
  let ok s = function
    | Ok v -> v
    | Error msg -> Alcotest.failf "parse %S failed: %s" s msg
  in
  let parse s = ok s (Json.parse s) in
  Alcotest.(check string)
    "object roundtrip"
    {|{"a":1,"b":[true,null,"x\"y"],"c":1.5}|}
    (String.trim
       (Json.to_string ~minify:true
          (parse {| {"a": 1, "b": [true, null, "x\"y"], "c": 1.5} |})));
  (match parse {|{"n": 12}|} with
  | Json.Obj [ ("n", Json.Int 12) ] -> ()
  | _ -> Alcotest.fail "integer literal parses as Int");
  (match parse {|{"n": 12.0}|} with
  | Json.Obj [ ("n", Json.Float 12.0) ] -> ()
  | _ -> Alcotest.fail "fractional literal parses as Float");
  (match parse {|"é\n"|} with
  | Json.String "\xc3\xa9\n" -> ()
  | _ -> Alcotest.fail "escape sequences decode");
  let rejected s =
    Alcotest.(check bool)
      (Printf.sprintf "%S rejected" s)
      true
      (Result.is_error (Json.parse s))
  in
  rejected "[1,]";
  rejected "{\"a\":1} trailing";
  rejected "{'a':1}";
  rejected ""

(* ---- Trace ------------------------------------------------------------- *)

module Trace = Dq_obs.Trace

(* Run [f] with a fresh enabled trace; return its result and the events. *)
let traced f =
  Trace.clear ();
  Trace.set_enabled true;
  let result =
    Fun.protect ~finally:(fun () -> Trace.set_enabled false) f
  in
  let events = Trace.events () in
  Trace.clear ();
  (result, events)

(* Bracket discipline per domain lane: within one tid, every E closes the
   innermost open B of the same name and does not travel back in time.
   (Paths span lanes — a worker chunk's logical parent lives on the
   submitting domain — so nesting of paths is checked separately, by
   prefix closure.) *)
let check_well_formed events =
  let stacks = Hashtbl.create 8 in
  let stack tid = try Hashtbl.find stacks tid with Not_found -> [] in
  List.iter
    (fun (e : Trace.event) ->
      match e.ph with
      | `B -> Hashtbl.replace stacks e.tid ((e.name, e.ts) :: stack e.tid)
      | `E -> (
        match stack e.tid with
        | [] -> Alcotest.failf "E %S on tid %d with no open span" e.name e.tid
        | (name, ts) :: rest ->
          Alcotest.(check string)
            (Printf.sprintf "E matches innermost B on tid %d" e.tid)
            name e.name;
          Alcotest.(check bool)
            (Printf.sprintf "span %S ends at or after its start" e.name)
            true (e.ts >= ts);
          Hashtbl.replace stacks e.tid rest))
    events;
  Hashtbl.iter
    (fun tid st ->
      Alcotest.(check int)
        (Printf.sprintf "tid %d balanced" tid)
        0 (List.length st))
    stacks

(* Logical tree shape: every B path ends in the span's own name and its
   parent prefix is itself the path of some span — the observed path set
   is prefix-closed. *)
let check_paths_nested events =
  let b_paths = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      if e.ph = `B then Hashtbl.replace b_paths e.path ())
    events;
  List.iter
    (fun (e : Trace.event) ->
      if e.ph = `B then begin
        (match List.rev e.path with
        | last :: _ ->
          Alcotest.(check string) "path ends with span name" e.name last
        | [] -> Alcotest.fail "B event with empty path");
        match List.rev e.path with
        | _ :: (_ :: _ as parent_rev) ->
          Alcotest.(check bool)
            (Printf.sprintf "parent path of %s exists"
               (String.concat "/" e.path))
            true
            (Hashtbl.mem b_paths (List.rev parent_rev))
        | _ -> ()
      end)
    events

let path_set events =
  List.sort_uniq compare
    (List.filter_map
       (fun (e : Trace.event) -> if e.ph = `B then Some e.path else None)
       events)

let test_trace_disabled_noop () =
  Trace.clear ();
  let r = Trace.span "unrecorded" (fun () -> 41 + 1) in
  Alcotest.(check int) "span runs its thunk" 42 r;
  Alcotest.(check int) "nothing buffered" 0 (List.length (Trace.events ()))

let test_trace_well_formed () =
  let db = fig1_db () and sigma = fig1_sigma () in
  let _, events =
    traced (fun () ->
        Pool.with_pool ~jobs:4 @@ fun pool ->
        ok2 (Inc_repair.repair_dirty ~pool db sigma))
  in
  Alcotest.(check bool) "events recorded" true (events <> []);
  check_well_formed events;
  check_paths_nested events;
  (* exceptional exit still closes the span *)
  let _, events =
    traced (fun () ->
        try Trace.span "outer" (fun () -> failwith "boom") with _ -> ())
  in
  check_well_formed events

(* Two systhreads on one domain with overlapping spans: [a] opens, [b]
   opens, [a] closes, [b] closes.  Each thread has its own stack and
   lane, so neither span nests in the other and each lane brackets. *)
let test_trace_thread_lanes () =
  let m = Mutex.create () and moved = Condition.create () in
  let step = ref 0 in
  let wait_for n =
    Mutex.protect m (fun () ->
        while !step < n do
          Condition.wait moved m
        done)
  in
  let advance () =
    Mutex.protect m (fun () ->
        incr step;
        Condition.broadcast moved)
  in
  let _, events =
    traced (fun () ->
        let a =
          Thread.create
            (fun () ->
              Trace.span "a" (fun () ->
                  advance ();
                  wait_for 2);
              advance ())
            ()
        in
        let b =
          Thread.create
            (fun () ->
              wait_for 1;
              Trace.span "b" (fun () ->
                  advance ();
                  wait_for 3))
            ()
        in
        Thread.join a;
        Thread.join b)
  in
  Alcotest.(check (list (pair string (list string))))
    "each B path is its own name"
    [ ("a", [ "a" ]); ("b", [ "b" ]) ]
    (List.filter_map
       (fun (e : Trace.event) ->
         if e.ph = `B then Some (e.name, e.path) else None)
       events);
  check_well_formed events

(* One span, three consumers: with tracing on, the phase entry, the
   timer's total and the trace interval are one duration. *)
let test_span_fan_out () =
  Metrics.reset ();
  let timer = Metrics.timer "test.obs.span" in
  let phases = ref [] in
  let _, events =
    traced (fun () ->
        Trace.span ~timer ~phases "work" (fun () ->
            ignore (Sys.opaque_identity (List.init 10_000 Fun.id))))
  in
  let dt =
    match !phases with
    | [ ("work", dt) ] -> dt
    | _ -> Alcotest.fail "expected one phase named work"
  in
  let total =
    match
      Option.bind (Json.member "timers" (Metrics.snapshot ())) (fun ts ->
          Option.bind (Json.member "test.obs.span" ts) (Json.member "total_s"))
    with
    | Some (Json.Float s) -> s
    | _ -> Alcotest.fail "timer test.obs.span missing from the snapshot"
  in
  let ts ph =
    (List.find (fun (e : Trace.event) -> e.ph = ph && e.name = "work") events)
      .ts
  in
  Alcotest.(check bool) "duration is positive" true (dt > 0.);
  Alcotest.(check (float 1e-9)) "timer total = phase" dt total;
  Alcotest.(check (float 1e-9))
    "trace interval = phase" dt
    ((ts `E -. ts `B) /. 1e6)

(* Every engine times its phases and its runtime on one clock, with the
   runtime's start read on entry: each phase is non-negative and they sum
   to at most the runtime, exactly. *)
let test_phases_within_runtime () =
  let module Datagen = Dq_workload.Datagen in
  let module Noise = Dq_workload.Noise in
  let n = 600 in
  let ds = Datagen.generate (Datagen.default_params ~n_tuples:n ~seed:7 ()) in
  let dirty = (Noise.inject (Noise.default_params ~seed:8 ()) ds).Noise.dirty in
  let sigma = ds.Datagen.sigma in
  let check label runtime (report : Report.t) =
    List.iter
      (fun (phase, s) ->
        if not (s >= 0.) then
          Alcotest.failf "%s: phase %s is %g s" label phase s)
      report.Report.phases;
    let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0. report.phases in
    if sum > runtime then
      Alcotest.failf "%s: phases sum to %.9f s, past runtime %.9f s" label sum
        runtime
  in
  let (_, st), report = ok2 (Batch_repair.repair dirty sigma) in
  check "batch" st.Batch_repair.runtime report;
  let fds =
    Dq_cfd.Cfd.number
      (List.concat_map
         (Dq_cfd.Cfd.normalize Dq_workload.Order_schema.schema)
         [ phi3; phi4 ])
  in
  let (_, st), report = ok2 (Dq_engine.Opt_fd_repair.repair dirty fds) in
  check "opt-fd" st.Dq_engine.Opt_fd_repair.runtime report;
  let base = Relation.create (Relation.schema dirty) in
  let delta = ref [] in
  Relation.iter
    (fun t ->
      let tid = Tuple.tid t in
      match Relation.find ds.Datagen.dopt tid with
      | Some clean when 2 * tid < n -> Relation.add base (Tuple.copy clean)
      | _ -> delta := Tuple.copy t :: !delta)
    dirty;
  let delta = List.rev !delta in
  List.iter
    (fun (name, ordering) ->
      let (_, st), report =
        ok2 (Inc_repair.repair_inserts ~ordering base delta sigma)
      in
      check ("repair_inserts " ^ name) st.Inc_repair.runtime report;
      let (_, st), report =
        ok2 (Inc_repair.repair_dirty ~ordering dirty sigma)
      in
      check ("repair_dirty " ^ name) st.Inc_repair.runtime report)
    Inc_repair.[ ("l", Linear); ("v", By_violations); ("w", By_weight) ]

let test_trace_json_roundtrip () =
  let db = fig1_db () and sigma = fig1_sigma () in
  Trace.clear ();
  Trace.set_enabled true;
  ignore
    (Fun.protect
       ~finally:(fun () -> Trace.set_enabled false)
       (fun () -> ok2 (Batch_repair.repair db sigma)));
  let doc = Trace.to_json () in
  Trace.clear ();
  match Json.parse (Json.to_string ~minify:true doc) with
  | Error msg -> Alcotest.failf "trace JSON does not reparse: %s" msg
  | Ok (Json.Obj fields) ->
    (match List.assoc_opt "traceEvents" fields with
    | Some (Json.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "traceEvents missing or empty");
    Alcotest.(check bool)
      "displayTimeUnit present" true
      (List.assoc_opt "displayTimeUnit" fields = Some (Json.String "ms"))
  | Ok _ -> Alcotest.fail "trace JSON is not an object"

let test_trace_paths_jobs_independent () =
  let db = fig1_db () and sigma = fig1_sigma () in
  let run jobs =
    let _, events =
      traced (fun () ->
          Pool.with_pool ~jobs @@ fun pool ->
          ok2 (Inc_repair.repair_dirty ~pool db sigma))
    in
    path_set events
  in
  let p1 = run 1 and p4 = run 4 in
  Alcotest.(check int) "same number of distinct paths" (List.length p1)
    (List.length p4);
  Alcotest.(check bool) "identical path sets at jobs {1,4}" true (p1 = p4)

let prop_trace_paths_jobs_independent =
  QCheck.Test.make
    ~name:"trace span path set identical across jobs {1,4}" ~count:20
    Gen.instance
    (fun (rel, sigma) ->
      QCheck.assume (Dq_cfd.Satisfiability.is_satisfiable Gen.schema sigma);
      let run jobs =
        let _, events =
          traced (fun () ->
              Pool.with_pool ~jobs @@ fun pool ->
              ok_report (Inc_repair.repair_dirty ~pool rel sigma))
        in
        check_well_formed events;
        path_set events
      in
      run 1 = run 4)

let suite =
  [
    Alcotest.test_case "json rendering" `Quick test_json_render;
    Alcotest.test_case "json parsing" `Quick test_json_parse;
    Alcotest.test_case "trace disabled is a no-op" `Quick
      test_trace_disabled_noop;
    Alcotest.test_case "trace events well-formed" `Quick
      test_trace_well_formed;
    Alcotest.test_case "trace JSON reparses" `Quick test_trace_json_roundtrip;
    Alcotest.test_case "trace lanes are per thread" `Quick
      test_trace_thread_lanes;
    Alcotest.test_case "one span feeds trace, timer and phase" `Quick
      test_span_fan_out;
    Alcotest.test_case "report phases fit inside runtime" `Quick
      test_phases_within_runtime;
    Alcotest.test_case "trace paths stable under --jobs (fig1)" `Quick
      test_trace_paths_jobs_independent;
    QCheck_alcotest.to_alcotest prop_trace_paths_jobs_independent;
    Alcotest.test_case "metrics enabled" `Quick test_metrics_enabled;
    Alcotest.test_case "metrics: negative add clamps" `Quick
      test_metrics_negative_add;
    Alcotest.test_case "metrics: one kind per name" `Quick
      test_metrics_one_kind_per_name;
    Alcotest.test_case "metrics: gauge semantics (jobs 1 and 4)" `Quick
      test_gauge_semantics;
    Alcotest.test_case "metrics: histogram buckets" `Quick
      test_histogram_buckets;
    Alcotest.test_case "metrics: prometheus exposition golden" `Quick
      test_prometheus_exposition;
    Alcotest.test_case "report timing excluded from equality" `Quick
      test_report_timing_excluded;
    Alcotest.test_case "report stable under --jobs (fig1)" `Quick
      test_report_stable_under_jobs;
    Alcotest.test_case "batch provenance replay" `Quick
      test_batch_replay_reconstructs;
    Alcotest.test_case "incremental provenance replay" `Quick
      test_inc_replay_reconstructs;
    QCheck_alcotest.to_alcotest prop_report_stable_under_jobs;
  ]
