(* cfdclean: CFD-based data cleaning from the command line.

   Subcommands:
     detect    report CFD violations in a CSV file
     repair    repair a CSV file (BATCHREPAIR or INCREPAIR)
     check     check a CFD file for satisfiability
     lint      static analysis of a CFD file (E/W diagnostic codes)
     analyze   whole-ruleset interaction analysis: dependency cycles,
               shard-safety partition, oscillation pairs, cost estimates
     sample    repair, then estimate the repair's inaccuracy rate by
               stratified sampling against a ground-truth file
     discover  mine CFDs from a (mostly clean) CSV file
     generate  emit a synthetic order dataset (clean + dirty + CFDs)

   Data is CSV with a header row; constraints use the textual CFD format
   (see the dataqual.cfd documentation or `cfdclean generate`).

   Every subcommand takes `--format text|json` and `--metrics FILE`.  With
   `--format json` stdout carries one version-2 envelope object
   (Dq_obs.Envelope, shared with the serve daemon's endpoints)

     {"v": 2, "request": ..., "ok": ..., "report": ..., "diagnostics": [...]}

   whose `report` is the engine's structured Dq_obs.Report.t.  Exit codes
   are standardised in Dq_error.Exit: 0 success, 1 problems found
   (violations, rejected sample, unsatisfiable), 2 usage/input error,
   3 lint-gated refusal. *)

open Cmdliner
open Dq_relation
open Dq_cfd
open Dq_core
open Dq_analysis
open Dq_workload
module Pool = Dq_parallel.Pool
module Json = Dq_obs.Json
module Report = Dq_obs.Report
module Metrics = Dq_obs.Metrics
module Provenance = Dq_obs.Provenance
module Trace = Dq_obs.Trace
module Progress = Dq_obs.Progress
module Fault = Dq_fault.Fault
module Deadline = Dq_fault.Deadline
module Atomic_io = Dq_fault.Atomic_io
module Engine = Dq_engine.Engine

let ( let* ) = Result.bind

(* ---- shared plumbing -------------------------------------------------- *)

type format = Text | Json_format

let load_csv path =
  match Csv.load_file_res path with
  | Ok rel -> Ok rel
  | Error e ->
    Error
      (Dq_error.Parse
         { path; line = e.Csv.line; col = e.Csv.col; message = e.Csv.message })
  | exception Sys_error msg -> Error (Dq_error.Io msg)

let load_tableaus path =
  match Cfd_parser.parse_file_located path with
  | Ok ltabs -> Ok ltabs
  | Error e ->
    Error
      (Dq_error.Parse
         { path; line = e.Cfd_parser.line; col = e.col; message = e.message })

(* detect/repair/sample refuse a ruleset with lint errors unless --force:
   an unsatisfiable or ill-typed Σ makes their output meaningless.  With
   --analyze-gate they additionally refuse rulesets whose attribute
   dependency graph has cycles (the Example-4.1 oscillation hazard,
   certified by the Σ-interaction analyzer). *)
let with_inputs ?(force = false) ?(analyze_gate = false) data_path cfd_path k =
  let* rel = load_csv data_path in
  let* ltabs = load_tableaus cfd_path in
  let schema = Relation.schema rel in
  let errors = if force then [] else Lint.run ~errors_only:true ~schema ltabs in
  if errors <> [] then
    Error
      (Dq_error.Lint_gated
         {
           path = cfd_path;
           errors = List.length errors;
           hint =
             Fmt.str
               "run `cfdclean lint %s --data %s` for details, or pass --force"
               cfd_path data_path;
         })
  else
    match Cfd_parser.resolve schema (Cfd_parser.Located.strip_all ltabs) with
    | exception Invalid_argument msg -> Error (Dq_error.Invalid_input msg)
    | sigma -> (
      match
        if analyze_gate then Interaction.termination schema sigma
        else Interaction.Terminating
      with
      | Interaction.Terminating -> k rel sigma
      | Interaction.May_oscillate cycles ->
        Error
          (Dq_error.Analyze_gated
             {
               path = cfd_path;
               cycles = List.length cycles;
               hint =
                 Fmt.str
                   "run `cfdclean analyze %s` for the cycle certificates, or \
                    drop --analyze-gate"
                   cfd_path;
             }))

(* A numeric option out of its range is a usage error (exit 2), caught
   here before the library's own precondition would raise. *)
let require ok fmt =
  Fmt.kstr
    (fun msg -> if ok then Ok () else Error (Dq_error.Invalid_input msg))
    fmt

(* Validate --jobs and run [k] with a pool of that many domains. *)
let with_jobs jobs k =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let* () = require (jobs >= 1) "--jobs must be at least 1 (got %d)" jobs in
  Pool.with_pool ~jobs k

(* What a subcommand hands back on success: the structured report, the
   exit code, extra diagnostics for the JSON envelope, and a thunk that
   prints the human-readable output (run only with --format text). *)
type success = {
  report : Report.t;
  code : int;
  diagnostics : Json.t list;
  text : unit -> unit;
}

let succeed ?(code = Dq_error.Exit.ok) ?(diagnostics = []) report text =
  Ok { report; code; diagnostics; text }

let envelope ~command ~ok ~report ~diagnostics =
  Dq_obs.Envelope.make ~request:command ~ok ~report ~diagnostics ()

(* Arm the fault-injection plan from --fault-plan (or, failing that, the
   DQ_FAULT environment variable).  Site names are validated against the
   compiled-in list so a typo'd plan fails loudly instead of silently
   never firing. *)
let arm_fault plan =
  match
    match plan with Some _ -> plan | None -> Sys.getenv_opt "DQ_FAULT"
  with
  | None -> Ok ()
  | Some text -> (
    match Fault.parse_plan text with
    | Error msg -> Error (Dq_error.Invalid_config ("--fault-plan: " ^ msg))
    | Ok specs -> (
      match
        List.find_opt
          (fun s -> not (List.mem s.Fault.site Fault.known_sites))
          specs
      with
      | Some s ->
        Error
          (Dq_error.Invalid_config
             (Fmt.str "--fault-plan: unknown site %S (known sites: %s)"
                s.Fault.site
                (String.concat ", " Fault.known_sites)))
      | None ->
        Fault.arm specs;
        Ok ()))

(* The uniform tail of every subcommand: print either the text output or
   the JSON envelope, dump the metrics/trace snapshots when asked, and map
   errors to the standard exit codes.  Metrics always record; trace and
   progress collection are switched on before the command body runs, so
   engine instrumentation is live.  Trace and progress never touch
   stdout: the trace goes to its own file, progress lines to stderr.

   The body runs under a catch-all for the structured failure modes of
   the fault-tolerance layer: an injected fault, an escaped deadline and
   plain I/O failures all map to Dq_error values (and hence stable
   messages and exit codes), never to a backtrace. *)
let run_command ~command ~format ~metrics ~trace ~progress ~fault k =
  if trace <> None then begin
    Trace.clear ();
    Trace.set_enabled true
  end;
  if progress then Progress.set_enabled true;
  let code =
    let result =
      match arm_fault fault with
      | Error _ as e -> e
      | Ok () -> (
        try k () with
        | Fault.Injected site -> Error (Dq_error.Fault_injected site)
        | Deadline.Expired -> Error Dq_error.Deadline_exceeded
        | Sys_error msg -> Error (Dq_error.Io msg))
    in
    Progress.finish ();
    match result with
    | Ok s ->
      (match format with
      | Text -> s.text ()
      | Json_format ->
        print_string
          (Json.to_string
             (envelope ~command ~ok:true ~report:(Report.to_json s.report)
                ~diagnostics:s.diagnostics)));
      s.code
    | Error e ->
      (match format with
      | Text -> Fmt.epr "cfdclean: %s@." (Dq_error.to_string e)
      | Json_format ->
        print_string
          (Json.to_string
             (envelope ~command ~ok:false ~report:Json.Null
                ~diagnostics:[ Dq_error.to_json e ])));
      Dq_error.exit_code e
  in
  (match trace with
  | None -> ()
  | Some path -> (
    try Trace.write path
    with Sys_error msg -> Fmt.epr "cfdclean: --trace: %s@." msg));
  (match metrics with
  | None -> ()
  | Some path -> (
    try Atomic_io.write_file path (Json.to_string (Metrics.snapshot ()))
    with Sys_error msg -> Fmt.epr "cfdclean: --metrics: %s@." msg));
  `Ok code

let force_arg =
  Arg.(
    value & flag
    & info [ "force" ]
        ~doc:"Run even if the ruleset has lint errors (see $(b,cfdclean lint)).")

let analyze_gate_arg =
  Arg.(
    value & flag
    & info [ "analyze-gate" ]
        ~doc:
          "Refuse rulesets whose attribute dependency graph has cycles (exit \
           3): naive rule application may not terminate on them.  \
           $(b,cfdclean analyze) prints the cycle certificates.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel passes: detection's \
           constant-clause scan, the violation counts of the $(b,inc) \
           engines and discovery's candidate levels (default: the \
           recommended domain count for this machine).  The $(b,batch) and \
           $(b,opt-fd) engines run on one domain whatever $(docv) is.  \
           Results are identical at any job count.")

let format_arg =
  let parse = function
    | "text" -> Ok Text
    | "json" -> Ok Json_format
    | s -> Error (`Msg (Fmt.str "unknown format %S" s))
  in
  let print ppf = function
    | Text -> Fmt.string ppf "text"
    | Json_format -> Fmt.string ppf "json"
  in
  Arg.(
    value
    & opt (conv (parse, print)) Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format: $(b,text), or $(b,json) for one version-2 envelope \
           object {\"v\", \"request\", \"ok\", \"report\", \"diagnostics\"} \
           on stdout.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the metrics snapshot (counters, timers, gauges and \
           histograms) to $(docv) as JSON on exit.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable span tracing and write a Chrome trace-event JSON dump to \
           $(docv) on exit — load it in $(b,chrome://tracing) or \
           $(b,https://ui.perfetto.dev) to see phases, passes and one lane \
           per thread.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Show a live progress line (pass, unresolved violations, \
           throughput) on stderr while the engines run.  Never written to \
           stdout, so it composes with $(b,--format json).")

let fault_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~doc:
          "Arm deterministic fault injection for testing the \
           fault-tolerance paths: comma-separated $(i,SITE@HIT), \
           $(i,SITE@HIT:raise) or $(i,SITE@HIT:delay MS) specs, e.g. \
           $(b,io.write@1) or $(b,pool.task@3:delay 50).  Defaults to \
           the $(b,DQ_FAULT) environment variable.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Cooperative time budget in seconds.  When it expires the engine \
           stops at the next safe point and returns its best result so far, \
           marked $(b,degraded) in the report; if nothing usable exists yet \
           the command fails with exit code 4.")

let resolve_deadline = function
  | None -> Ok Deadline.never
  | Some s when s < 0. ->
    Error
      (Dq_error.Invalid_input
         (Fmt.str "--deadline must be non-negative (got %g)" s))
  | Some s -> Ok (Deadline.after s)

(* repair also takes --deadline-passes, a logical budget that cuts at a
   deterministic engine boundary (batch pass / opt-fd stratum / inc
   tuple) — what the degraded-path goldens rely on. *)
let resolve_deadline2 wall passes =
  match (wall, passes) with
  | Some _, Some _ ->
    Error
      (Dq_error.Invalid_input
         "--deadline and --deadline-passes cannot be combined")
  | None, Some n when n < 1 ->
    Error
      (Dq_error.Invalid_input
         (Fmt.str "--deadline-passes must be at least 1 (got %d)" n))
  | None, Some n -> Ok (Deadline.after_passes n)
  | wall, None -> resolve_deadline wall

(* ---- detect ---- *)

let detect data_path cfd_path verbose force analyze_gate jobs format metrics
    trace progress fault =
  run_command ~command:"detect" ~format ~metrics ~trace ~progress ~fault
  @@ fun () ->
  with_inputs ~force ~analyze_gate data_path cfd_path @@ fun rel sigma ->
  with_jobs jobs @@ fun pool ->
  let counts = Violation.vio_counts ~pool rel sigma in
  let dirty = Hashtbl.length counts in
  let total = Hashtbl.fold (fun _ n acc -> acc + n) counts 0 in
  let report =
    Report.make ~engine:"detect"
      ~summary:
        [
          ("tuples", Json.Int (Relation.cardinality rel));
          ("clauses", Json.Int (Array.length sigma));
          ("violating_tuples", Json.Int dirty);
          ("violations", Json.Int total);
        ]
      ()
  in
  succeed ~code:(if dirty = 0 then Dq_error.Exit.ok else Dq_error.Exit.dirty)
    report (fun () ->
      Fmt.pr "%d tuples, %d clauses: %d violating tuples, vio(D) = %d@."
        (Relation.cardinality rel) (Array.length sigma) dirty total;
      if verbose then
        List.iter
          (Fmt.pr "  %a@." Violation.pp)
          (Violation.find_all ~pool rel sigma))

let detect_cmd =
  let data =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DATA.csv")
  in
  let cfds =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"CONSTRAINTS.cfd")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"List each violation.")
  in
  Cmd.v
    (Cmd.info "detect" ~doc:"Report CFD violations in a CSV file")
    Term.(
      ret
        (const detect $ data $ cfds $ verbose $ force_arg $ analyze_gate_arg
       $ jobs_arg $ format_arg $ metrics_arg $ trace_arg $ progress_arg
       $ fault_arg))

(* ---- repair ---- *)

let same_file a b =
  match (Unix.realpath a, Unix.realpath b) with
  | ra, rb -> String.equal ra rb
  | exception Unix.Unix_error _ -> false
  | exception Sys_error _ -> false

(* Where the repaired CSV goes: [None] means stdout (text mode only).
   An output path that resolves to the input file is refused unless
   --in-place; bare --in-place targets the input file itself. *)
let resolve_output ~data_path ~output ~in_place =
  match (output, in_place) with
  | Some path, false when same_file path data_path ->
    Error (Dq_error.Would_overwrite path)
  | Some path, _ -> Ok (Some path)
  | None, true -> Ok (Some data_path)
  | None, false -> Ok None

let save_csv rel path =
  match Csv.save_file rel path with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Dq_error.Io msg)

let print_explain ppf report =
  match report.Report.provenance with
  | [] -> Fmt.pf ppf "explain: no cells changed@."
  | entries ->
    Fmt.pf ppf
      "pass  tuple  attr       old            -> new            clause           cost@.";
    List.iter (fun e -> Fmt.pf ppf "%a@." Provenance.pp_entry e) entries

let repair data_path cfd_path output in_place explain engine force analyze_gate
    jobs format metrics trace progress fault deadline deadline_passes checkpoint
    resume =
  run_command ~command:"repair" ~format ~metrics ~trace ~progress ~fault
  @@ fun () ->
  let* (module E : Engine.ENGINE) = Engine.find engine in
  with_inputs ~force ~analyze_gate data_path cfd_path @@ fun rel sigma ->
  if not (Satisfiability.is_satisfiable (Relation.schema rel) sigma) then
    Error Dq_error.Unsatisfiable
  else
    let* () = Engine.check_fragment (module E) (Relation.schema rel) sigma in
    let* out = resolve_output ~data_path ~output ~in_place in
    let* deadline = resolve_deadline2 deadline deadline_passes in
    let* resume =
      match resume with
      | None -> Ok None
      | Some path -> (
        match Checkpoint.load path with
        | Ok cp -> Ok (Some cp)
        | Error msg -> Error (Dq_error.Invalid_input (path ^ ": " ^ msg)))
    in
    let* () =
      if (checkpoint <> None || resume <> None) && not E.supports_checkpoint
      then
        Error
          (Dq_error.Invalid_input
             (Fmt.str
                "--checkpoint/--resume are not supported by the %s engine \
                 (use --engine batch or --engine opt-fd)"
                E.name))
      else Ok ()
    in
    with_jobs jobs @@ fun pool ->
    let ctx = Engine.ctx ~pool ~deadline ?checkpoint ?resume rel sigma in
    let* (repaired, stats_line), report = E.run ctx in
    let* () =
      match out with Some path -> save_csv repaired path | None -> Ok ()
    in
    succeed report (fun () ->
        Fmt.epr "%s@." stats_line;
        Fmt.epr "repair cost: %.3f; dif: %d cells@."
          (Cost.repair_cost ~original:rel ~repair:repaired)
          (Relation.dif rel repaired);
        (match report.Report.degraded with
        | Some d ->
          Fmt.epr "cfdclean: warning: %s — partial repair (progress %.0f%%)@."
            d.Report.reason
            (100. *. d.Report.progress)
        | None -> ());
        (* With the CSV going to stdout the explain table moves to stderr
           so the repair stays machine-readable. *)
        if explain then
          print_explain (if out = None then Fmt.stderr else Fmt.stdout) report;
        match out with
        | None -> print_string (Csv.save_string repaired)
        | Some _ -> ())

let repair_cmd =
  let data =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DATA.csv")
  in
  let cfds =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"CONSTRAINTS.cfd")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT.csv"
          ~doc:
            "Write the repair here instead of stdout.  Refused when $(docv) \
             is the input file, unless $(b,--in-place) is given.")
  in
  let in_place =
    Arg.(
      value & flag
      & info [ "in-place" ]
          ~doc:
            "Overwrite $(b,DATA.csv) with the repair (or allow $(b,-o) to \
             point at it).")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print the cell-level provenance table: every changed cell with \
             its old and new value, resolving clause, plan cost and pass.")
  in
  let engine =
    Arg.(
      value & opt string "batch"
      & info [ "engine" ] ~docv:"NAME"
          ~doc:
            "Repair engine: $(b,batch) (BATCHREPAIR, any ruleset), $(b,inc) \
             / $(b,l-inc) / $(b,w-inc) (INCREPAIR orderings), or \
             $(b,opt-fd) (value repair for acyclic FD-only rulesets, optimal \
             when no RHS attribute is on an LHS).  \
             An unknown name or an engine whose Σ fragment does not cover \
             the ruleset exits 2 with a stable diagnostic.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Snapshot the repair state to $(docv) at every pass boundary \
             (atomically), so an interrupted run can continue with \
             $(b,--resume).  Engines $(b,batch) and $(b,opt-fd) only.")
  in
  let resume =
    Arg.(
      value
      & opt (some file) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Continue from a $(b,--checkpoint) snapshot taken on the same \
             input, ruleset and configuration.  The finished repair is \
             byte-identical to an uninterrupted run, with or without \
             $(b,--checkpoint).")
  in
  let deadline_passes =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-passes" ] ~docv:"N"
          ~doc:
            "Deterministic logical deadline: stop after $(docv) engine \
             boundaries (batch passes, opt-fd strata, inc tuples) and \
             return the best result so far, marked degraded.  Unlike \
             $(b,--deadline) the cut point is independent of the wall \
             clock, so degraded output is reproducible.")
  in
  Cmd.v
    (Cmd.info "repair" ~doc:"Compute a repair satisfying the CFDs")
    Term.(
      ret
        (const repair $ data $ cfds $ output $ in_place $ explain $ engine
       $ force_arg $ analyze_gate_arg $ jobs_arg $ format_arg $ metrics_arg
       $ trace_arg $ progress_arg $ fault_arg $ deadline_arg $ deadline_passes
       $ checkpoint $ resume))

(* ---- check ---- *)

(* check is a thin front-end to the lint engine (errors only), keeping the
   original satisfiability-probe output and exit-code behavior. *)
let check schema_csv cfd_path format metrics trace progress fault =
  run_command ~command:"check" ~format ~metrics ~trace ~progress ~fault
  @@ fun () ->
  let* rel = load_csv schema_csv in
  let* ltabs = load_tableaus cfd_path in
  let schema = Relation.schema rel in
  let errors = Lint.run ~errors_only:true ~schema ltabs in
  let unsat = List.exists (fun d -> d.Diagnostic.code = Diagnostic.E001) errors in
  if unsat then
    succeed ~code:Dq_error.Exit.dirty
      (Report.make ~engine:"check"
         ~summary:[ ("satisfiable", Json.Bool false) ]
         ())
      (fun () ->
        Fmt.pr "UNSATISFIABLE: no non-empty instance can satisfy these CFDs@.")
  else
    match Cfd_parser.resolve schema (Cfd_parser.Located.strip_all ltabs) with
    | exception Invalid_argument msg -> Error (Dq_error.Invalid_input msg)
    | sigma ->
      succeed
        (Report.make ~engine:"check"
           ~summary:
             [
               ("satisfiable", Json.Bool true);
               ("clauses", Json.Int (Array.length sigma));
             ]
           ())
        (fun () ->
          Fmt.pr "satisfiable (%d normal-form clauses)@." (Array.length sigma))

let check_cmd =
  let data =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"DATA.csv" ~doc:"Any CSV with the target header row.")
  in
  let cfds =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"CONSTRAINTS.cfd")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check a CFD set for satisfiability")
    Term.(
      ret
        (const check $ data $ cfds $ format_arg $ metrics_arg $ trace_arg
       $ progress_arg $ fault_arg))

(* ---- lint ---- *)

let diagnostic_to_json d =
  let base =
    [
      ("code", Json.String (Diagnostic.code_to_string d.Diagnostic.code));
      ( "severity",
        Json.String (Diagnostic.severity_to_string (Diagnostic.severity d)) );
      ("message", Json.String d.Diagnostic.message);
    ]
  in
  let clause =
    match d.Diagnostic.clause with
    | Some c -> [ ("clause", Json.String c) ]
    | None -> []
  in
  let span =
    match d.Diagnostic.span with
    | Some s ->
      [
        ("line", Json.Int s.Cfd_parser.line);
        ("col", Json.Int s.Cfd_parser.col_start);
        ("end_col", Json.Int s.Cfd_parser.col_end);
      ]
    | None -> []
  in
  Json.Obj (base @ clause @ span)

(* `lint --explain CODE` prints the diagnostic catalog entry and ignores
   any ruleset argument — same text docs/ANALYSIS.md is built from. *)
let lint_explain code_str =
  match Diagnostic.code_of_string code_str with
  | None ->
    Error
      (Dq_error.Invalid_input
         (Fmt.str "--explain: unknown diagnostic code %S (codes: %s)" code_str
            (String.concat ", "
               (List.map Diagnostic.code_to_string Diagnostic.all_codes))))
  | Some code ->
    succeed
      (Report.make ~engine:"lint"
         ~summary:
           [
             ("code", Json.String (Diagnostic.code_to_string code));
             ( "severity",
               Json.String
                 (Diagnostic.severity_to_string
                    (Diagnostic.severity_of_code code)) );
             ("summary", Json.String (Diagnostic.describe code));
             ("explanation", Json.String (Diagnostic.explain code));
           ]
         ())
      (fun () -> Fmt.pr "%s@." (Diagnostic.explain code))

let lint cfd_path data_path errors_only explain format metrics trace progress
    fault =
  run_command ~command:"lint" ~format ~metrics ~trace ~progress ~fault
  @@ fun () ->
  match explain with
  | Some code_str -> lint_explain code_str
  | None ->
  let* cfd_path =
    match cfd_path with
    | Some p -> Ok p
    | None ->
      Error
        (Dq_error.Invalid_input
           "a CONSTRAINTS.cfd argument is required (or use --explain CODE)")
  in
  let* source =
    match In_channel.with_open_bin cfd_path In_channel.input_all with
    | s -> Ok s
    | exception Sys_error msg -> Error (Dq_error.Io msg)
  in
  let* schema =
    match data_path with
    | None -> Ok None
    | Some csv ->
      let* rel = load_csv csv in
      Ok (Some (Relation.schema rel))
  in
  (* A parse failure is itself a diagnostic (E000), so lint always
     produces a report — CI never has to special-case syntax errors. *)
  let diags =
    match Cfd_parser.parse_string_located source with
    | Error e ->
      [
        Diagnostic.make
          ~span:
            Cfd_parser.{ line = e.line; col_start = e.col; col_end = e.col + 1 }
          Diagnostic.E000 e.message;
      ]
    | Ok ltabs -> Lint.run ?schema ltabs
  in
  let diags =
    if errors_only then List.filter Diagnostic.is_error diags else diags
  in
  let errors = List.length (List.filter Diagnostic.is_error diags) in
  let report =
    Report.make ~engine:"lint"
      ~summary:
        [
          ("path", Json.String cfd_path);
          ("errors", Json.Int errors);
          ("warnings", Json.Int (List.length diags - errors));
        ]
      ()
  in
  succeed
    ~code:(if errors > 0 then Dq_error.Exit.dirty else Dq_error.Exit.ok)
    ~diagnostics:(List.map diagnostic_to_json diags) report (fun () ->
      List.iter
        (fun d -> Fmt.pr "@[<v>%a@]@." (Render.pp_text ~path:cfd_path ~source) d)
        diags;
      Fmt.pr "%s: %s@." cfd_path (Render.summary diags))

let lint_cmd =
  let cfds =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"CONSTRAINTS.cfd"
          ~doc:"Ruleset to lint; optional with $(b,--explain).")
  in
  let data =
    Arg.(
      value
      & opt (some file) None
      & info [ "data" ] ~docv:"DATA.csv"
          ~doc:
            "CSV whose header gives the schema to type-check attribute names \
             against (enables the E003 check).")
  in
  let errors_only =
    Arg.(
      value & flag
      & info [ "errors-only" ] ~doc:"Report only errors, not warnings.")
  in
  let explain =
    Arg.(
      value
      & opt (some string) None
      & info [ "explain" ] ~docv:"CODE"
          ~doc:
            "Print the catalog entry for one diagnostic code (e.g. \
             $(b,W004)) with a worked example, and exit.  See \
             $(b,docs/ANALYSIS.md) for the full catalog.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis of a CFD ruleset: satisfiability, conflicting or \
          redundant patterns, schema mismatches, cyclic clause interactions. \
          Exits 1 if any error (E-code) is found.")
    Term.(
      ret
        (const lint $ cfds $ data $ errors_only $ explain $ format_arg
       $ metrics_arg $ trace_arg $ progress_arg $ fault_arg))

(* ---- analyze ---- *)

(* Whole-ruleset interaction analysis (Interaction): dependency cycles
   with printable certificates, the shard-safety partition, oscillation
   pairs and (with --data) sampled cost estimates.  Exit 1 when the
   termination verdict is May_oscillate, mirroring detect's dirty exit. *)
let analyze cfd_path data_path sample_cap format metrics trace progress fault =
  run_command ~command:"analyze" ~format ~metrics ~trace ~progress ~fault
  @@ fun () ->
  let* () =
    if sample_cap < 0 then
      Error
        (Dq_error.Invalid_input
           (Fmt.str "--sample must be non-negative (got %d)" sample_cap))
    else Ok ()
  in
  let* ltabs = load_tableaus cfd_path in
  let* data =
    match data_path with
    | None -> Ok None
    | Some csv ->
      let* rel = load_csv csv in
      Ok (Some rel)
  in
  let schema =
    match data with
    | Some rel -> Relation.schema rel
    | None -> Lint.synthesize_schema ltabs
  in
  match Cfd_parser.resolve schema (Cfd_parser.Located.strip_all ltabs) with
  | exception Invalid_argument msg -> Error (Dq_error.Invalid_input msg)
  | sigma ->
    let a = Interaction.analyze ?data ~sample:sample_cap schema sigma in
    let attr = Schema.attribute schema in
    let attr_list ps = Json.List (List.map (fun p -> Json.String (attr p)) ps) in
    let name_span name =
      List.find_map
        (fun (lt : Cfd_parser.Located.tableau) ->
          if String.equal lt.Cfd_parser.Located.tab.Cfd.Tableau.name name then
            Some lt.Cfd_parser.Located.name_span
          else None)
        ltabs
    in
    (* The envelope diagnostics: one A001 per cyclic SCC (with its
       certificate), one A002 per oscillation pair, one A003 per hot
       clause.  Spans point at the name of the first clause involved. *)
    let diag_of_clause code cid fmt =
      let name = Cfd.name sigma.(cid) in
      Format.kasprintf
        (fun message ->
          Diagnostic.make ?span:(name_span name) ~clause:name code message)
        fmt
    in
    let diags =
      List.map
        (fun (c : Interaction.cycle) ->
          let witness = Interaction.cycle_to_string schema sigma c in
          match c.Interaction.steps with
          | (_, cid, _) :: _ ->
            diag_of_clause Diagnostic.A001 cid
              "attribute dependency cycle: %s" witness
          | [] ->
            Diagnostic.make Diagnostic.A001
              (Fmt.str "attribute dependency cycle: %s" witness))
        a.Interaction.cycles
      @ List.map
          (fun (o : Interaction.oscillation) ->
            diag_of_clause Diagnostic.A002 o.Interaction.a
              "clauses %s and %s feed each other's LHS (severity %s)"
              (Cfd.name sigma.(o.Interaction.a))
              (Cfd.name sigma.(o.Interaction.b))
              (Interaction.severity_to_string o.Interaction.severity))
          a.Interaction.oscillations
      @ List.filter_map
          (fun (c : Interaction.clause_cost) ->
            if c.Interaction.hot then
              Some
                (diag_of_clause Diagnostic.A003 c.Interaction.clause
                   "hot clause %s: violation density %.3f (threshold %.2f)"
                   (Cfd.name sigma.(c.Interaction.clause))
                   c.Interaction.violation_density Interaction.hot_threshold)
            else None)
          (Option.value ~default:[] a.Interaction.costs)
    in
    let diags = List.sort Diagnostic.compare diags in
    let cycle_json (c : Interaction.cycle) =
      Json.Obj
        [
          ("attrs", attr_list c.Interaction.attrs);
          ( "witness",
            Json.String (Interaction.cycle_to_string schema sigma c) );
        ]
    in
    let shard_json (s : Interaction.shard) =
      Json.Obj
        [
          ("shard", Json.Int s.Interaction.shard_id);
          ( "clauses",
            Json.List (List.map (fun i -> Json.Int i) s.Interaction.clauses)
          );
          ("attrs", attr_list s.Interaction.attrs);
          ("independent", Json.Bool s.Interaction.independent);
        ]
    in
    let osc_json (o : Interaction.oscillation) =
      Json.Obj
        [
          ("a", Json.Int o.Interaction.a);
          ("b", Json.Int o.Interaction.b);
          ( "severity",
            Json.String
              (Interaction.severity_to_string o.Interaction.severity) );
        ]
    in
    let cost_json (c : Interaction.clause_cost) =
      Json.Obj
        [
          ("clause", Json.Int c.Interaction.clause);
          ("name", Json.String (Cfd.name sigma.(c.Interaction.clause)));
          ("selectivity", Json.Float c.Interaction.selectivity);
          ("violation_density", Json.Float c.Interaction.violation_density);
          ("fanout", Json.Float c.Interaction.fanout);
          ("hot", Json.Bool c.Interaction.hot);
        ]
    in
    let terminating = a.Interaction.termination = Interaction.Terminating in
    let report =
      Report.make ~engine:"analyze"
        ~summary:
          ([
             ("path", Json.String cfd_path);
             ("clauses", Json.Int (Array.length sigma));
             ("attributes", Json.Int (Schema.arity schema));
             ( "termination",
               Json.String
                 (if terminating then "terminating" else "may-oscillate") );
             ("cycles", Json.List (List.map cycle_json a.Interaction.cycles));
             ("shards", Json.List (List.map shard_json a.Interaction.shards));
             ( "oscillations",
               Json.List (List.map osc_json a.Interaction.oscillations) );
           ]
          @
          match a.Interaction.costs with
          | None -> []
          | Some costs ->
            [ ("costs", Json.List (List.map cost_json costs)) ])
        ()
    in
    succeed
      ~code:(if terminating then Dq_error.Exit.ok else Dq_error.Exit.dirty)
      ~diagnostics:(List.map diagnostic_to_json diags) report
      (fun () ->
        Fmt.pr "%s: %d clauses over %d attributes@." cfd_path
          (Array.length sigma) (Schema.arity schema);
        (match a.Interaction.termination with
        | Interaction.Terminating ->
          Fmt.pr "termination: dependency graph is acyclic@."
        | Interaction.May_oscillate cycles ->
          Fmt.pr "termination: MAY OSCILLATE (%d cycle%s)@."
            (List.length cycles)
            (if List.length cycles = 1 then "" else "s");
          List.iter
            (fun c ->
              Fmt.pr "  cycle: %s@."
                (Interaction.cycle_to_string schema sigma c))
            cycles);
        Fmt.pr "shard plan: %d shard%s@."
          (List.length a.Interaction.shards)
          (if List.length a.Interaction.shards = 1 then "" else "s");
        List.iter
          (fun (s : Interaction.shard) ->
            (* Normal-form rulesets carry one clause per pattern row, all
               sharing the source CFD's name: collapse runs into a count
               so mined rulesets stay readable. *)
            let names =
              List.fold_left
                (fun acc i ->
                  let name = Cfd.name sigma.(i) in
                  match acc with
                  | (n, k) :: rest when String.equal n name ->
                    (n, k + 1) :: rest
                  | _ -> (name, 1) :: acc)
                [] s.Interaction.clauses
              |> List.rev_map (fun (n, k) ->
                     if k = 1 then n else Printf.sprintf "%s (%d rows)" n k)
            in
            Fmt.pr "  shard %d: clauses {%s} over {%s}%s@."
              s.Interaction.shard_id
              (String.concat ", " names)
              (String.concat ", " (List.map attr s.Interaction.attrs))
              (if s.Interaction.independent then ""
               else " (requires reconciliation)"))
          a.Interaction.shards;
        List.iter
          (fun (o : Interaction.oscillation) ->
            Fmt.pr "oscillation: %s <-> %s (severity %s)@."
              (Cfd.name sigma.(o.Interaction.a))
              (Cfd.name sigma.(o.Interaction.b))
              (Interaction.severity_to_string o.Interaction.severity))
          a.Interaction.oscillations;
        match a.Interaction.costs with
        | None -> ()
        | Some costs ->
          Fmt.pr
            "clause costs (sample of %d tuple%s):@."
            (min sample_cap
               (match data with
               | Some rel -> Relation.cardinality rel
               | None -> 0))
            (if sample_cap = 1 then "" else "s");
          List.iter
            (fun (c : Interaction.clause_cost) ->
              Fmt.pr
                "  %-10s sel %.3f  vio %.3f  fanout %.2f%s@."
                (Cfd.name sigma.(c.Interaction.clause))
                c.Interaction.selectivity c.Interaction.violation_density
                c.Interaction.fanout
                (if c.Interaction.hot then "  HOT" else ""))
            costs)

let analyze_cmd =
  let cfds =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CONSTRAINTS.cfd")
  in
  let data =
    Arg.(
      value
      & opt (some file) None
      & info [ "data" ] ~docv:"DATA.csv"
          ~doc:
            "Instance to estimate per-clause costs on (LHS selectivity, \
             violation density, repair fan-out) from a bounded sample.  Its \
             header also supplies the schema; without it one is synthesized \
             from the attributes the ruleset mentions.")
  in
  let sample =
    Arg.(
      value & opt int 2000
      & info [ "sample" ] ~docv:"N"
          ~doc:
            "Tuples of $(b,--data) to examine for the cost estimates (the \
             instance's first $(docv), so results are deterministic).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Whole-ruleset interaction analysis: the attribute dependency graph \
          with cycle certificates and a termination verdict, the shard-safety \
          partition into independently repairable clause groups, oscillation \
          pairs, and (with $(b,--data)) sampled per-clause cost estimates.  \
          Exits 1 when the repair fixpoint may oscillate.")
    Term.(
      ret
        (const analyze $ cfds $ data $ sample $ format_arg $ metrics_arg
       $ trace_arg $ progress_arg $ fault_arg))

(* ---- sample ---- *)

let sample data_path cfd_path truth_path epsilon confidence sample_size force
    analyze_gate format metrics trace progress fault deadline =
  run_command ~command:"sample" ~format ~metrics ~trace ~progress ~fault
  @@ fun () ->
  with_inputs ~force ~analyze_gate data_path cfd_path @@ fun rel sigma ->
  let* truth = load_csv truth_path in
  let* deadline = resolve_deadline deadline in
  let* (repaired, _stats), _repair_report =
    Batch_repair.repair ~deadline rel sigma
  in
  let oracle t' =
    match Relation.find truth (Tuple.tid t') with
    | Some t -> not (Tuple.equal_values t t')
    | None -> true
  in
  let config = Sampling.default_config ~epsilon ~confidence ~sample_size () in
  let* sreport, report =
    Sampling.inspect ~deadline config ~original:rel ~repair:repaired ~sigma
      ~oracle
  in
  succeed
    ~code:
      (if sreport.Sampling.accepted then Dq_error.Exit.ok
       else Dq_error.Exit.dirty)
    report
    (fun () -> Fmt.pr "%a@." Sampling.pp_report sreport)

let sample_cmd =
  let data =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DATA.csv")
  in
  let cfds =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"CONSTRAINTS.cfd")
  in
  let truth =
    Arg.(
      required
      & pos 2 (some file) None
      & info [] ~docv:"TRUTH.csv"
          ~doc:"Ground truth standing in for the inspecting user.")
  in
  let epsilon =
    Arg.(value & opt float 0.05 & info [ "epsilon" ] ~doc:"Inaccuracy bound.")
  in
  let confidence =
    Arg.(value & opt float 0.95 & info [ "confidence" ] ~doc:"Confidence level.")
  in
  let size =
    Arg.(value & opt int 200 & info [ "sample-size" ] ~doc:"Tuples to inspect.")
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:"Repair, then statistically assess the repair's accuracy")
    Term.(
      ret
        (const sample $ data $ cfds $ truth $ epsilon $ confidence $ size
       $ force_arg $ analyze_gate_arg $ format_arg $ metrics_arg $ trace_arg
       $ progress_arg $ fault_arg $ deadline_arg))

(* ---- generate ---- *)

let generate n rate seed out_prefix format metrics trace progress fault =
  run_command ~command:"generate" ~format ~metrics ~trace ~progress ~fault
  @@ fun () ->
  let* () = require (n >= 1) "-n must be at least 1 (got %d)" n in
  let* () =
    require (rate >= 0. && rate <= 1.) "--rate must be in [0, 1] (got %g)" rate
  in
  let ds = Datagen.generate (Datagen.default_params ~n_tuples:n ~seed ()) in
  let noise = Noise.inject (Noise.default_params ~rate ~seed ()) ds in
  let clean_path = out_prefix ^ "_clean.csv" in
  let dirty_path = out_prefix ^ "_dirty.csv" in
  let cfd_path = out_prefix ^ ".cfd" in
  let* () = save_csv ds.Datagen.dopt clean_path in
  let* () = save_csv noise.Noise.dirty dirty_path in
  let* () =
    match
      Atomic_io.write_file cfd_path (Cfd_parser.to_string ds.Datagen.tableaus)
    with
    | () -> Ok ()
    | exception Sys_error msg -> Error (Dq_error.Io msg)
  in
  succeed
    (Report.make ~engine:"generate"
       ~summary:
         [
           ("clean", Json.String clean_path);
           ("dirty", Json.String dirty_path);
           ("cfds", Json.String cfd_path);
           ("tuples", Json.Int n);
           ("dirtied", Json.Int (List.length noise.Noise.dirty_tids));
           ("pattern_rows", Json.Int (Datagen.pattern_row_count ds));
         ]
       ())
    (fun () ->
      Fmt.pr "wrote %s (%d tuples), %s (%d dirtied), %s (%d pattern rows)@."
        clean_path n dirty_path
        (List.length noise.Noise.dirty_tids)
        cfd_path
        (Datagen.pattern_row_count ds))

(* ---- discover ---- *)

let discover data_path out min_support min_confidence max_lhs jobs format
    metrics trace progress fault =
  run_command ~command:"discover" ~format ~metrics ~trace ~progress ~fault
  @@ fun () ->
  let* () =
    require (max_lhs >= 1) "--max-lhs must be at least 1 (got %d)" max_lhs
  in
  let* rel = load_csv data_path in
  with_jobs jobs @@ fun pool ->
  let config =
    Discovery.default_config ~max_lhs_size:max_lhs ~min_support ~min_confidence
      ()
  in
  let d = Discovery.discover ~pool ~config rel in
  let text = Cfd_parser.to_string d.Discovery.tableaus in
  let* () =
    match out with
    | None -> Ok ()
    | Some path -> (
      match Atomic_io.write_file path text with
      | () -> Ok ()
      | exception Sys_error msg -> Error (Dq_error.Io msg))
  in
  succeed
    (Report.make ~engine:"discover"
       ~summary:
         [
           ("variable_fds", Json.Int d.Discovery.n_variable);
           ("constant_rows", Json.Int d.Discovery.n_constant);
           ("ruleset", Json.String text);
         ]
       ())
    (fun () ->
      Fmt.epr "discovered %d embedded FDs and %d constant pattern rows@."
        d.Discovery.n_variable d.Discovery.n_constant;
      match out with None -> print_string text | Some _ -> ())

let discover_cmd =
  let data =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DATA.csv")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT.cfd"
          ~doc:"Write the discovered CFDs here instead of stdout.")
  in
  let support =
    Arg.(
      value & opt int 10
      & info [ "min-support" ] ~doc:"Tuples a constant pattern row must cover.")
  in
  let confidence =
    Arg.(
      value & opt float 1.0
      & info [ "min-confidence" ]
          ~doc:"Fraction of covered tuples that must agree (1.0 = exact).")
  in
  let max_lhs =
    Arg.(
      value & opt int 2
      & info [ "max-lhs" ] ~doc:"Largest LHS attribute set to consider.")
  in
  Cmd.v
    (Cmd.info "discover" ~doc:"Mine CFDs from a (mostly clean) CSV file")
    Term.(
      ret
        (const discover $ data $ out $ support $ confidence $ max_lhs
       $ jobs_arg $ format_arg $ metrics_arg $ trace_arg $ progress_arg
       $ fault_arg))

let generate_cmd =
  let n = Arg.(value & opt int 5_000 & info [ "n" ] ~doc:"Number of tuples.") in
  let rate = Arg.(value & opt float 0.05 & info [ "rate" ] ~doc:"Noise rate.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Random seed.") in
  let prefix =
    Arg.(value & opt string "orders" & info [ "prefix" ] ~doc:"Output prefix.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic order dataset")
    Term.(
      ret
        (const generate $ n $ rate $ seed $ prefix $ format_arg $ metrics_arg
       $ trace_arg $ progress_arg $ fault_arg))

(* ---- serve ---- *)

(* serve is the one subcommand that does not go through run_command: it
   owns no stdout envelope (each HTTP response carries its own), prints
   one ready line so scripts can wait for the port, and runs until
   signalled.  kill -9 is the crash path the session store covers. *)
let serve port state_dir resume log log_level slow_request_s trace limits
    fault =
  (* Telemetry first, so the daemon's own start-up lines are captured.
     [--log -] (the default) sends JSON lines to stderr; [--log FILE]
     appends; [--no-log] leaves no sink installed. *)
  let log_ok =
    match log with
    | None -> Ok ()
    | Some "-" ->
      Dq_obs.Log.set_sink (Some (Dq_obs.Log.stderr_sink ()));
      Ok ()
    | Some path -> (
      match Dq_obs.Log.file_sink path with
      | Ok sink ->
        Dq_obs.Log.set_sink (Some sink);
        Ok ()
      | Error msg -> Error (Dq_error.Io msg))
  in
  match log_ok with
  | Error e ->
    Fmt.epr "cfdclean: %s@." (Dq_error.to_string e);
    `Ok (Dq_error.exit_code e)
  | Ok () -> (
    (match Dq_obs.Log.level_of_string log_level with
    | Some lvl -> Dq_obs.Log.set_level lvl
    | None -> ());
    (match trace with
    | None -> ()
    | Some path ->
      Dq_obs.Trace.set_enabled true;
      (* The daemon exits from a signal handler, so the dump rides
         at_exit rather than a normal return path. *)
      at_exit (fun () ->
          try Dq_obs.Trace.write path with Sys_error _ -> ()));
    match arm_fault fault with
    | Error e ->
      Fmt.epr "cfdclean: %s@." (Dq_error.to_string e);
      `Ok (Dq_error.exit_code e)
    | Ok () -> (
      match
        Dq_serve.Serve.start
          { Dq_serve.Serve.port; state_dir; resume; slow_request_s; limits }
      with
      | Error e ->
        Fmt.epr "cfdclean: %s@." (Dq_error.to_string e);
        `Ok (Dq_error.exit_code e)
      | Ok d ->
        Fmt.pr "cfdclean serve: listening on http://127.0.0.1:%d@."
          (Dq_serve.Serve.port d);
        (* SIGTERM/SIGINT request a graceful drain: the handler only flips
           a flag — Serve.stop joins threads and takes locks, none of
           which is safe from a signal handler — and the poll loop below
           runs the drain on the main thread, then exits 0. *)
        let quit = Atomic.make false in
        let on_signal = Sys.Signal_handle (fun _ -> Atomic.set quit true) in
        (try Sys.set_signal Sys.sigterm on_signal
         with Invalid_argument _ -> ());
        (try Sys.set_signal Sys.sigint on_signal
         with Invalid_argument _ -> ());
        (* Poll rather than Serve.wait: with every thread parked in a
           blocking C call (accept, join), a pending SIGTERM has no
           safepoint to run its handler at; Thread.delay wakes this thread
           and the signal is processed on return. *)
        while not (Atomic.get quit) do
          Thread.delay 0.1
        done;
        Dq_serve.Serve.stop d;
        `Ok 0))

let serve_cmd =
  let port =
    Arg.(
      value & opt int 8080
      & info [ "port" ] ~docv:"PORT"
          ~doc:
            "TCP port to listen on (loopback only).  $(b,0) picks an \
             ephemeral port, reported on the ready line.")
  in
  let state_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Checkpoint every committed session mutation to $(docv) \
             (atomically, before the response is acknowledged), so \
             $(b,--resume) after a crash serves byte-identical relations.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Load checkpointed sessions back from $(b,--state-dir) first.")
  in
  let log =
    Arg.(
      value
      & opt (some string) (Some "-")
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Structured JSON-lines log destination: $(b,-) for stderr (the \
             default) or a file to append to.  One line per request \
             ($(b,http.access)) plus lifecycle events, each carrying the \
             request id.")
  in
  let no_log =
    Arg.(
      value & flag
      & info [ "no-log" ] ~doc:"Disable structured logging entirely.")
  in
  let log_level =
    Arg.(
      value & opt string "info"
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Drop log lines below $(docv): $(b,debug), $(b,info), $(b,warn) \
             or $(b,error).")
  in
  let slow_request =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-request" ] ~docv:"SECS"
          ~doc:"Warn-log any request slower than $(docv) seconds.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event dump of every request's span tree \
             to $(docv) on exit (engine phases nest under their request \
             ids).")
  in
  let log_term = Term.(const (fun log no_log -> if no_log then None else log) $ log $ no_log) in
  let max_connections =
    Arg.(
      value & opt int 0
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "Refuse (503, without spawning a handler) connections past \
             $(docv) concurrently open ones.  $(b,0) (the default) means \
             unbounded.")
  in
  let max_inflight =
    Arg.(
      value & opt int 0
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Answer 503 past $(docv) requests in flight; $(b,/v1/health) \
             and $(b,/v1/metrics) stay exempt so an overloaded daemon \
             remains observable.  $(b,0) means unbounded.")
  in
  let queue_depth =
    Arg.(
      value & opt int 0
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Shed ingest/resolve with 429 + $(b,retry-after) when the \
             session's FIFO lane already holds $(docv) jobs.  $(b,0) means \
             unbounded.")
  in
  let ingest_workers =
    Arg.(
      value & opt int 0
      & info [ "ingest-workers" ] ~docv:"N"
          ~doc:
            "Run whole ingest and resolve jobs on $(docv) worker domains, \
             so independent sessions repair in parallel; they are the \
             daemon's only worker domains.  $(b,0) (the default) runs \
             jobs on the handler thread.")
  in
  let keep_alive =
    Arg.(
      value & flag
      & info [ "keep-alive" ]
          ~doc:
            "HTTP/1.1 persistent connections (default: close after one \
             response).  Idle connections close after $(b,--idle-timeout).")
  in
  let idle_timeout =
    Arg.(
      value & opt float 5.
      & info [ "idle-timeout" ] ~docv:"SECS"
          ~doc:
            "With $(b,--keep-alive), close a connection idle between \
             requests for $(docv) seconds (default 5).")
  in
  let read_timeout =
    Arg.(
      value & opt float 0.
      & info [ "read-timeout" ] ~docv:"SECS"
          ~doc:
            "Bound every socket read within a request (slowloris defense: \
             a stalled mid-request peer gets 408).  $(b,0) disables.")
  in
  let evict_idle =
    Arg.(
      value & opt float 0.
      & info [ "evict-idle" ] ~docv:"SECS"
          ~doc:
            "Checkpoint and drop sessions idle for $(docv) seconds \
             (requires $(b,--state-dir)); the next request naming the \
             session reloads it transparently.  $(b,0) disables.")
  in
  let breaker_threshold =
    Arg.(
      value & opt int 0
      & info [ "breaker-threshold" ] ~docv:"N"
          ~doc:
            "Quarantine a session (status $(b,engine_failed), requests \
             answer 503) after $(docv) consecutive engine faults, until \
             $(b,POST /v1/sessions/ID/resume).  $(b,0) disables.")
  in
  let drain_timeout =
    Arg.(
      value & opt float 30.
      & info [ "drain-timeout" ] ~docv:"SECS"
          ~doc:
            "On SIGTERM/SIGINT, wait up to $(docv) seconds (default 30) \
             for in-flight and queued work to finish before force-closing \
             straggler connections.")
  in
  let fault_plan =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-plan" ] ~docv:"PLAN"
          ~doc:
            "Arm the fault-injection plan (SITE@HIT or SITE@HIT:delay-MS, \
             comma-separated) — the chaos-soak hook.  Network sites: \
             $(b,serve.accept), $(b,serve.read), $(b,serve.write), \
             $(b,serve.ingest).")
  in
  let limits_term =
    let make max_connections max_inflight queue_depth ingest_workers
        keep_alive idle_timeout_s read_timeout_s evict_idle_s
        breaker_threshold drain_timeout_s =
      {
        Dq_serve.Serve.max_connections;
        max_inflight;
        queue_depth;
        ingest_workers;
        keep_alive;
        idle_timeout_s;
        read_timeout_s;
        evict_idle_s;
        breaker_threshold;
        drain_timeout_s;
      }
    in
    Term.(
      const make $ max_connections $ max_inflight $ queue_depth
      $ ingest_workers $ keep_alive $ idle_timeout $ read_timeout
      $ evict_idle $ breaker_threshold $ drain_timeout)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Streaming repair daemon: per-session clean relations behind a \
          versioned HTTP/JSON API (see docs/SERVE.md)")
    Term.(
      ret
        (const serve $ port $ state_dir $ resume $ log_term $ log_level
       $ slow_request $ trace $ limits_term $ fault_plan))

let () =
  let doc = "CFD-based data cleaning (Cong et al., VLDB 2007)" in
  let info = Cmd.info "cfdclean" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            detect_cmd;
            repair_cmd;
            check_cmd;
            lint_cmd;
            analyze_cmd;
            sample_cmd;
            discover_cmd;
            generate_cmd;
            serve_cmd;
          ]))
