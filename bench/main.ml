(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Section 7, Figures 8-15), the Theorem 6.1 sample-size curve, the
   ablations called out in DESIGN.md, and Bechamel micro-benchmarks of the
   core primitives.

   Usage: dune exec bench/main.exe --
            [--only SECTION]... [--seeds K] [--scale N] [--out DIR]
            [--trace FILE]

   Every section writes a stable-schema BENCH_<section>.json into the
   --out directory (default "."): the shared CLI envelope whose
   report.summary is {section, scale, seeds, metrics} with metrics a flat
   name -> number map (median over --seeds).  How fast the cfdclean
   binary runs end to end, against committed baselines, is measured by
   perfbench/ instead (see perfbench/README.md).

   Sizes are scaled down from the paper's 10k-300k testbed (see DESIGN.md,
   substitutions): the default base size is 4,000 tuples so the full
   harness finishes in minutes; pass --scale to change it.  Shapes, not
   absolute numbers, are the reproduction target; EXPERIMENTS.md records
   the comparison. *)

open Dq_relation
open Dq_cfd
open Dq_core
open Dq_workload
module Json = Dq_obs.Json
module Trace = Dq_obs.Trace
module Atomic_io = Dq_fault.Atomic_io
module Clock = Dq_fault.Clock

(* ---- command line ---------------------------------------------------- *)

let valid_sections =
  [
    "fig8";
    "fig9";
    "fig10";
    "fig11";
    "fig12";
    "fig13";
    "fig14";
    "fig15";
    "thm61";
    "abl-depgraph";
    "abl-cluster";
    "abl-k";
    "micro";
  ]

let only = ref []

let seeds = ref [ 7 ]

let base_n = ref 4_000

let out_dir = ref "."

let trace_path = ref None

let usage () =
  Fmt.epr
    "usage: main.exe [--only SECTION]... [--seeds K] [--scale N] [--out DIR] \
     [--trace FILE]@.\
     \  --only SECTION   run one section (repeatable); SECTION is one of:@.\
     \                   %s@.\
     \  --seeds K        median results over K >= 1 dataset seeds (default 1)@.\
     \  --scale N        base database size in tuples, N >= 2 (default 4000)@.\
     \  --out DIR        existing directory receiving the per-section \
     BENCH_*.json files (default .)@.\
     \  --trace FILE     write a Chrome trace-event dump of the run@."
    (String.concat " " valid_sections)

(* Every argument is checked before any section runs, so a bad one never
   leaves zeros or a partial run behind in BENCH_*.json.  Fig. 11's
   smallest database has scale/2 tuples, hence the floor of 2. *)
let bad_arg fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "%s@." msg;
      usage ();
      exit 2)
    fmt

let () =
  let rec parse = function
    | [] -> ()
    | "--only" :: name :: rest ->
      if not (List.mem name valid_sections) then begin
        Fmt.epr "unknown section %S; valid sections are:@.  %s@." name
          (String.concat " " valid_sections);
        exit 2
      end;
      only := name :: !only;
      parse rest
    | "--seeds" :: k :: rest ->
      let k = int_of_string k in
      if k < 1 then bad_arg "--seeds must be at least 1 (got %d)" k;
      seeds := List.init k (fun i -> 7 + (13 * i));
      parse rest
    | "--scale" :: n :: rest ->
      let n = int_of_string n in
      if n < 2 then bad_arg "--scale must be at least 2 (got %d)" n;
      base_n := n;
      parse rest
    | "--out" :: dir :: rest ->
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        bad_arg "--out %S is not a directory" dir;
      out_dir := dir;
      parse rest
    | "--trace" :: path :: rest ->
      trace_path := Some path;
      parse rest
    | arg :: _ ->
      Fmt.epr "unknown argument %S@." arg;
      usage ();
      exit 2
  in
  match parse (List.tl (Array.to_list Sys.argv)) with
  | () -> ()
  | exception Failure _ ->
    usage ();
    exit 2

let enabled name = !only = [] || List.mem name !only

let section name title =
  if enabled name then Fmt.pr "@.=== %s — %s ===@." name title;
  enabled name

(* ---- per-section BENCH_<section>.json --------------------------------- *)

(* The same envelope schema the CLI emits with --format json, so CI reads
   BENCH_*.json and `cfdclean ... --format json` with one parser.  The
   metrics map is flat name -> number: names are stable across PRs,
   values are medians over --seeds.  Names ending in _s are wall-clock
   seconds; all others are quality, size or rate metrics. *)
let write_section sect metrics =
  let report =
    Dq_obs.Report.make ~engine:"bench"
      ~summary:
        [
          ("section", Json.String sect);
          ("scale", Json.Int !base_n);
          ("seeds", Json.Int (List.length !seeds));
          ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics));
        ]
      ()
  in
  let doc =
    Dq_obs.Envelope.make ~request:"bench" ~ok:true
      ~report:(Dq_obs.Report.to_json report)
      ~diagnostics:[] ()
  in
  let path = Filename.concat !out_dir ("BENCH_" ^ sect ^ ".json") in
  match Atomic_io.write_file path (Json.to_string doc) with
  | () -> Fmt.pr "wrote %s@." path
  | exception Sys_error msg ->
    Fmt.epr "bench: cannot write %s: %s@." path msg;
    exit 2

(* ---- shared machinery ------------------------------------------------ *)

type outcome = { precision : float; recall : float; runtime : float }

(* The engines return results with an attached observability report; the
   bench only wants the (value, stats) pair and treats errors as fatal. *)
let engine_ok = function
  | Ok (pair, _report) -> pair
  | Error e -> failwith (Dq_error.to_string e)

let time f =
  let t0 = Clock.now () in
  let result = f () in
  (result, Clock.now () -. t0)

let dataset ?(n = !base_n) seed =
  Datagen.generate (Datagen.default_params ~n_tuples:n ~seed ())

let dirtied ?(rate = 0.05) ?(constant_share = 0.5) ds seed =
  Noise.inject (Noise.default_params ~rate ~constant_share ~seed ()) ds

let score ds (info : Noise.info) repair runtime =
  let m =
    Metrics.evaluate ~dopt:ds.Datagen.dopt ~dirty:info.Noise.dirty ~repair
  in
  { precision = m.Metrics.precision; recall = m.Metrics.recall; runtime }

let run_batch ?(sigma = None) ds info =
  let sigma = match sigma with Some s -> s | None -> ds.Datagen.sigma in
  let (repair, _), runtime =
    time (fun () -> engine_ok (Batch_repair.repair info.Noise.dirty sigma))
  in
  assert (Violation.satisfies repair sigma);
  score ds info repair runtime

let run_inc ordering ds info =
  let (repair, _), runtime =
    time (fun () ->
        engine_ok
          (Inc_repair.repair_dirty ~ordering info.Noise.dirty ds.Datagen.sigma))
  in
  assert (Violation.satisfies repair ds.Datagen.sigma);
  score ds info repair runtime

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Component-wise median over seeds: robust to one seed hitting a noisy
   scheduler moment, which an average would smear into every metric. *)
let over_seeds f =
  let os = List.map f !seeds in
  {
    precision = median (List.map (fun o -> o.precision) os);
    recall = median (List.map (fun o -> o.recall) os);
    runtime = median (List.map (fun o -> o.runtime) os);
  }

let pct x = 100. *. x

(* Print one table row of floats under a label. *)
let row label values =
  Fmt.pr "%-14s" label;
  List.iter (Fmt.pr " %8.1f") values;
  Fmt.pr "@."

let header label columns =
  Fmt.pr "%-14s" label;
  List.iter (fun c -> Fmt.pr " %8s" c) columns;
  Fmt.pr "@."

let noise_rates = [ 0.01; 0.03; 0.05; 0.08; 0.10 ]

(* ---- Figure 8: efficacy of CFDs vs plain FDs ------------------------- *)

let fig8 () =
  if section "fig8" "CFDs vs embedded FDs (BATCHREPAIR accuracy)" then begin
    (* three points: the FD baseline is slow (no constant anchors; see
       EXPERIMENTS.md) *)
    let rates = [ 0.02; 0.06; 0.10 ] in
    header "rho(%)" (List.map (fun r -> Fmt.str "%g" (pct r)) rates);
    let metrics = ref [] in
    let per_constraints name sigma_of =
      let prec = ref [] and rec_ = ref [] in
      List.iter
        (fun rate ->
          let o =
            over_seeds (fun seed ->
                let ds = dataset seed in
                let info = dirtied ~rate ds (seed + 1) in
                run_batch ~sigma:(Some (sigma_of ds)) ds info)
          in
          let tag = Fmt.str "%s.rho%g" name (pct rate) in
          metrics :=
            ((tag ^ ".recall", o.recall) :: (tag ^ ".prec", o.precision)
            :: !metrics);
          prec := pct o.precision :: !prec;
          rec_ := pct o.recall :: !rec_)
        rates;
      row (name ^ "/Prec") (List.rev !prec);
      row (name ^ "/Recall") (List.rev !rec_)
    in
    per_constraints "CFD" (fun ds -> ds.Datagen.sigma);
    per_constraints "FD" (fun ds ->
        Cfd.number (Cfd.embedded_fds (Array.to_list ds.Datagen.sigma)));
    write_section "fig8" (List.rev !metrics)
  end

(* ---- Figures 9, 10 and 13: accuracy and time vs noise rate ----------- *)

let algorithms =
  [
    ("BatchRepair", fun ds info -> run_batch ds info);
    ("V-IncRepair", run_inc Inc_repair.By_violations);
    ("W-IncRepair", run_inc Inc_repair.By_weight);
    ("L-IncRepair", run_inc Inc_repair.Linear);
  ]

let fig9_10_13 () =
  let want9 = enabled "fig9"
  and want10 = enabled "fig10"
  and want13 = enabled "fig13" in
  if want9 || want10 || want13 then begin
    let results =
      List.map
        (fun (name, algo) ->
          ( name,
            List.map
              (fun rate ->
                ( rate,
                  over_seeds (fun seed ->
                      let ds = dataset seed in
                      let info = dirtied ~rate ds (seed + 1) in
                      algo ds info) ))
              noise_rates ))
        algorithms
    in
    let cols = List.map (fun r -> Fmt.str "%g" (pct r)) noise_rates in
    let collect proj suffix =
      List.concat_map
        (fun (name, os) ->
          List.map
            (fun (rate, o) ->
              (Fmt.str "%s.rho%g.%s" name (pct rate) suffix, proj o))
            os)
        results
    in
    if section "fig9" "Precision vs noise rate (%)" then begin
      header "rho(%)" cols;
      List.iter
        (fun (name, os) ->
          row name (List.map (fun (_, o) -> pct o.precision) os))
        results;
      write_section "fig9" (collect (fun o -> o.precision) "prec")
    end;
    if section "fig10" "Recall vs noise rate (%)" then begin
      header "rho(%)" cols;
      List.iter
        (fun (name, os) -> row name (List.map (fun (_, o) -> pct o.recall) os))
        results;
      write_section "fig10" (collect (fun o -> o.recall) "recall")
    end;
    if section "fig13" "Runtime vs noise rate (seconds)" then begin
      header "rho(%)" cols;
      List.iter
        (fun (name, os) ->
          Fmt.pr "%-14s" name;
          List.iter (fun (_, o) -> Fmt.pr " %8.2f" o.runtime) os;
          Fmt.pr "@.")
        results;
      write_section "fig13" (collect (fun o -> o.runtime) "runtime_s")
    end
  end

(* ---- Figure 11: BATCHREPAIR scalability in |D| ----------------------- *)

let fig11 () =
  if section "fig11" "BATCHREPAIR runtime vs database size (rho = 5%)" then begin
    let sizes = List.map (fun k -> k * !base_n / 2) [ 1; 2; 3; 4; 5 ] in
    header "tuples" (List.map string_of_int sizes);
    let times =
      List.map
        (fun n ->
          ( n,
            (over_seeds (fun seed ->
                 let ds = dataset ~n seed in
                 let info = dirtied ds (seed + 1) in
                 run_batch ds info))
              .runtime ))
        sizes
    in
    Fmt.pr "%-14s" "BatchRepair";
    List.iter (fun (_, t) -> Fmt.pr " %8.2f" t) times;
    Fmt.pr "@.";
    write_section "fig11"
      (List.concat_map
         (fun (n, t) ->
           [
             (Fmt.str "BatchRepair.n%d.runtime_s" n, t);
             (Fmt.str "BatchRepair.n%d.tps" n, float_of_int n /. Float.max 1e-9 t);
           ])
         times)
  end

(* ---- Figure 12: incremental setting ---------------------------------- *)

let fig12 () =
  if
    section "fig12"
      "Incremental: runtime vs number of dirty tuples inserted into a clean \
       database"
  then begin
    let base_size = !base_n * 3 / 2 in
    let max_inserts = 70 in
    let counts = [ 10; 20; 30; 40; 50; 60; 70 ] in
    header "#inserted" (List.map string_of_int counts);
    let per_seed seed =
      (* Build a clean base plus a pool of dirty insertions. *)
      let ds = dataset ~n:(base_size + max_inserts) seed in
      let rate = float_of_int max_inserts /. float_of_int (base_size + max_inserts) in
      let info = dirtied ~rate ds (seed + 1) in
      let dirty_set = Hashtbl.create 64 in
      List.iter (fun tid -> Hashtbl.replace dirty_set tid ()) info.Noise.dirty_tids;
      let base = Relation.create Order_schema.schema in
      let pool = ref [] in
      Relation.iter
        (fun t ->
          if Hashtbl.mem dirty_set (Tuple.tid t) then pool := Tuple.copy t :: !pool
          else Relation.add base (Tuple.copy t))
        info.Noise.dirty;
      let pool = Array.of_list (List.rev !pool) in
      (ds, base, pool)
    in
    let inc_times = ref [] and batch_times = ref [] in
    List.iter
      (fun k ->
        let inc = ref [] and batch = ref [] in
        List.iter
          (fun seed ->
            let ds, base, pool = per_seed seed in
            let delta = Array.to_list (Array.sub pool 0 (min k (Array.length pool))) in
            let (_, stats) =
              engine_ok (Inc_repair.repair_inserts base delta ds.Datagen.sigma)
            in
            inc := stats.Inc_repair.runtime :: !inc;
            let whole = Relation.copy base in
            List.iter (fun t -> Relation.add whole (Tuple.copy t)) delta;
            let (_, bstats) = engine_ok (Batch_repair.repair whole ds.Datagen.sigma) in
            batch := bstats.Batch_repair.runtime :: !batch)
          !seeds;
        inc_times := (k, median !inc) :: !inc_times;
        batch_times := (k, median !batch) :: !batch_times)
      counts;
    let inc_times = List.rev !inc_times
    and batch_times = List.rev !batch_times in
    Fmt.pr "%-14s" "IncRepair";
    List.iter (fun (_, t) -> Fmt.pr " %8.2f" t) inc_times;
    Fmt.pr "@.%-14s" "BatchRepair";
    List.iter (fun (_, t) -> Fmt.pr " %8.2f" t) batch_times;
    Fmt.pr "@.";
    write_section "fig12"
      (List.map (fun (k, t) -> (Fmt.str "IncRepair.k%d.runtime_s" k, t)) inc_times
      @ List.map
          (fun (k, t) -> (Fmt.str "BatchRepair.k%d.runtime_s" k, t))
          batch_times)
  end

(* ---- Figures 14 and 15: constant vs variable CFD violations ---------- *)

let fig14_15 () =
  let want14 = enabled "fig14" and want15 = enabled "fig15" in
  if want14 || want15 then begin
    let shares = [ 0.2; 0.4; 0.6; 0.8 ] in
    let results =
      List.map
        (fun (name, algo) ->
          ( name,
            List.map
              (fun share ->
                ( share,
                  over_seeds (fun seed ->
                      let ds = dataset seed in
                      let info = dirtied ~constant_share:share ds (seed + 1) in
                      algo ds info) ))
              shares ))
        [
          ("BatchRepair", fun ds info -> run_batch ds info);
          ("IncRepair", run_inc Inc_repair.By_violations);
        ]
    in
    let cols = List.map (fun s -> Fmt.str "%g" (pct s)) shares in
    let collect proj suffix =
      List.concat_map
        (fun (name, os) ->
          List.map
            (fun (share, o) ->
              (Fmt.str "%s.c%g.%s" name (pct share) suffix, proj o))
            os)
        results
    in
    if
      section "fig14"
        "Accuracy vs %% of dirty tuples violating constant CFDs"
    then begin
      header "const(%)" cols;
      List.iter
        (fun (name, os) ->
          row (name ^ "/Prec") (List.map (fun (_, o) -> pct o.precision) os);
          row (name ^ "/Recall") (List.map (fun (_, o) -> pct o.recall) os))
        results;
      write_section "fig14"
        (collect (fun o -> o.precision) "prec"
        @ collect (fun o -> o.recall) "recall")
    end;
    if section "fig15" "Runtime vs %% constant-CFD violations (seconds)" then begin
      header "const(%)" cols;
      List.iter
        (fun (name, os) ->
          Fmt.pr "%-14s" name;
          List.iter (fun (_, o) -> Fmt.pr " %8.2f" o.runtime) os;
          Fmt.pr "@.")
        results;
      write_section "fig15" (collect (fun o -> o.runtime) "runtime_s")
    end
  end

(* ---- Theorem 6.1: Chernoff sample sizes ------------------------------ *)

let thm61 () =
  if
    section "thm61" "Chernoff sample-size bound (delta = 0.95, varying c, eps)"
  then begin
    let cs = [ 1; 5; 10; 20; 50 ] in
    header "c" (List.map string_of_int cs);
    let metrics = ref [] in
    List.iter
      (fun epsilon ->
        Fmt.pr "%-14s" (Fmt.str "eps=%.2f" epsilon);
        List.iter
          (fun c ->
            let size =
              Stats.chernoff_sample_size ~epsilon ~confidence:0.95 ~c
            in
            metrics :=
              (Fmt.str "eps%g.c%d.size" epsilon c, float_of_int size)
              :: !metrics;
            Fmt.pr " %8d" size)
          cs;
        Fmt.pr "@.")
      [ 0.01; 0.05; 0.10 ];
    write_section "thm61" (List.rev !metrics)
  end

(* ---- Ablations -------------------------------------------------------- *)

let ablation outcomes =
  List.concat_map
    (fun (label, o) ->
      [
        (label ^ ".prec", o.precision);
        (label ^ ".recall", o.recall);
        (label ^ ".runtime_s", o.runtime);
      ])
    outcomes

let ablation_depgraph () =
  if
    section "abl-depgraph"
      "BATCHREPAIR with/without the dependency-graph stratum bias"
  then begin
    header "" [ "prec"; "recall"; "seconds" ];
    let outcomes =
      List.map
        (fun (label, use_dependency_graph) ->
          let o =
            over_seeds (fun seed ->
                let ds = dataset seed in
                let info = dirtied ds (seed + 1) in
                let (repair, _), runtime =
                  time (fun () ->
                      engine_ok
                        (Batch_repair.repair ~use_dependency_graph
                           info.Noise.dirty ds.Datagen.sigma))
                in
                score ds info repair runtime)
          in
          row label [ pct o.precision; pct o.recall; o.runtime ];
          (label, o))
        [ ("with", true); ("without", false) ]
    in
    write_section "abl-depgraph" (ablation outcomes)
  end

let ablation_cluster () =
  if
    section "abl-cluster"
      "INCREPAIR with/without the cost-based cluster index"
  then begin
    header "" [ "prec"; "recall"; "seconds" ];
    let outcomes =
      List.map
        (fun (label, use_cluster_index) ->
          let o =
            over_seeds (fun seed ->
                let ds = dataset seed in
                let info = dirtied ds (seed + 1) in
                let (repair, _), runtime =
                  time (fun () ->
                      engine_ok
                        (Inc_repair.repair_dirty ~use_cluster_index
                           info.Noise.dirty ds.Datagen.sigma))
                in
                score ds info repair runtime)
          in
          row label [ pct o.precision; pct o.recall; o.runtime ];
          (label, o))
        [ ("with", true); ("without", false) ]
    in
    write_section "abl-cluster" (ablation outcomes)
  end

let ablation_k () =
  if section "abl-k" "TUPLERESOLVE: attributes fixed per greedy step (k)" then begin
    header "k" [ "prec"; "recall"; "seconds" ];
    let outcomes =
      List.map
        (fun k ->
          let o =
            over_seeds (fun seed ->
                let ds = dataset seed in
                let info = dirtied ds (seed + 1) in
                let (repair, _), runtime =
                  time (fun () ->
                      engine_ok
                        (Inc_repair.repair_dirty ~k info.Noise.dirty
                           ds.Datagen.sigma))
                in
                score ds info repair runtime)
          in
          row (string_of_int k) [ pct o.precision; pct o.recall; o.runtime ];
          (Fmt.str "k%d" k, o))
        [ 1; 2; 3 ]
    in
    write_section "abl-k" (ablation outcomes)
  end

(* ---- Bechamel micro-benchmarks ---------------------------------------- *)

let micro () =
  if section "micro" "Bechamel micro-benchmarks of the core primitives" then begin
    let open Bechamel in
    let ds = dataset ~n:2_000 7 in
    let info = dirtied ds 8 in
    let sigma = ds.Datagen.sigma in
    let clean = ds.Datagen.dopt in
    let dirty_tuple =
      Relation.find_exn info.Noise.dirty (List.hd info.Noise.dirty_tids)
    in
    let env = Tuple_resolve.make_env clean sigma in
    (* Warm the lazy cluster indexes out of the measured path. *)
    ignore (Tuple_resolve.resolve env (Tuple.copy dirty_tuple));
    let zip_domain = Relation.active_domain clean Order_schema.zip in
    let tests =
      Test.make_grouped ~name:"core"
        [
          Test.make ~name:"dl-distance" (Staged.stage (fun () ->
               Cost.dl_distance "Philadelphia" "Philadlephia"));
          Test.make ~name:"violation-scan-2k" (Staged.stage (fun () ->
               Violation.satisfies clean sigma));
          Test.make ~name:"lhs-index-build-2k" (Staged.stage (fun () ->
               Lhs_index.build sigma clean));
          Test.make ~name:"cluster-index-build" (Staged.stage (fun () ->
               Cluster_index.build zip_domain));
          Test.make ~name:"tuple-resolve" (Staged.stage (fun () ->
               Tuple_resolve.resolve env (Tuple.copy dirty_tuple)));
        ]
    in
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
    let ols =
      Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]
    in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    let rows =
      Hashtbl.fold
        (fun name res acc ->
          match Analyze.OLS.estimates res with
          | Some (est :: _) -> (name, est) :: acc
          | _ -> acc)
        results []
      |> List.sort compare
    in
    List.iter
      (fun (name, ns) ->
        if ns > 1e6 then Fmt.pr "%-28s %10.3f ms/run@." name (ns /. 1e6)
        else if ns > 1e3 then Fmt.pr "%-28s %10.3f us/run@." name (ns /. 1e3)
        else Fmt.pr "%-28s %10.1f ns/run@." name ns)
      rows;
    write_section "micro"
      (List.map (fun (name, ns) -> (name ^ ".runtime_s", ns /. 1e9)) rows)
  end

let () =
  (match !trace_path with
  | Some _ ->
    Trace.clear ();
    Trace.set_enabled true
  | None -> ());
  let started = Clock.now () in
  Fmt.pr
    "dataqual bench harness — base size %d tuples, %d seed(s)@.\
     (scaled-down testbed; see EXPERIMENTS.md for paper-vs-measured)@."
    !base_n (List.length !seeds);
  fig8 ();
  fig9_10_13 ();
  fig11 ();
  fig12 ();
  fig14_15 ();
  thm61 ();
  ablation_depgraph ();
  ablation_cluster ();
  ablation_k ();
  micro ();
  (match !trace_path with
  | Some path -> (
    try
      Trace.write path;
      Fmt.pr "wrote %s@." path
    with Sys_error msg -> Fmt.epr "bench: --trace: %s@." msg)
  | None -> ());
  Fmt.pr "@.total bench time: %.1fs@." (Clock.now () -. started)
