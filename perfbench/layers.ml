(* The in-process half of the end-to-end benchmark.  run.py times the real
   cfdclean binary; this program does the parts that have to run inside
   the library:

     layers gen orders --n N --seed S --dir D [--reference]
                       [--clients K --rows R --batch B]
     layers gen soak --seed S --batches N --dir D
     layers check --sigma F.cfd DATA.csv...
     layers host
     layers trace KIND --dir D --out TRACE.json [--reps K]
                       [--writes W --reads R --read-kinds KINDS]

   [gen] writes a workload's inputs from its seed; [check] is the
   Σ-satisfaction oracle behind the correctness gates; [host] describes
   the runtime for baseline files; [trace] replays a workload in-process
   with one span around each call into a layer, in the order the CLI or
   the daemon makes them, prints the per-layer numbers as one JSON object
   and writes the spans as a Chrome trace.

   The spans are recorded here, around calls into each layer's public
   functions, and never inside lib/: Dq_obs.Trace stays off, so the
   replayed code is the code the untraced binary runs. *)

open Dq_relation
open Dq_cfd
open Dq_workload
module Json = Dq_obs.Json
module Report = Dq_obs.Report
module Pool = Dq_parallel.Pool
module Engine = Dq_engine.Engine
module Session = Dq_serve.Session
module Store = Dq_serve.Store
module Http = Dq_serve.Http

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("layers: " ^ msg);
      exit 2)
    fmt

let ok_or what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Dq_error.to_string e)

(* ---- files ------------------------------------------------------------ *)

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_lines path lines = write_file path (String.concat "" (List.map (fun l -> l ^ "\n") lines))

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (fun l -> l <> "")

let load_csv path =
  match Csv.load_file_res path with
  | Ok rel -> rel
  | Error e -> fail "%s: %s" path (Csv.error_to_string e)

let load_sigma schema path =
  match Cfd_parser.parse_file path with
  | Ok tabs -> Cfd_parser.resolve schema tabs
  | Error e -> fail "%s: %s" path e.Cfd_parser.message

(* ---- gen -------------------------------------------------------------- *)

(* A JSON row whose numbers parse back to the value's own type: a float
   keeps its CSV rendering (which always carries a '.' or an exponent),
   where Json.to_string would print 6.0 as the integer 6.  JSON has no
   literal for a non-finite float, which the CSV loader makes of a typo
   such as "inf" or "nan", so that cell goes as the string it was. *)
let json_row values =
  let cell = function
    | Value.Null -> "null"
    | Value.Int i -> string_of_int i
    | Value.Float f as v when Float.is_finite f -> Value.to_string v
    | Value.Float _ as v -> "\"" ^ Json.escape (Value.to_string v) ^ "\""
    | Value.String s -> "\"" ^ Json.escape s ^ "\""
  in
  "[" ^ String.concat "," (Array.to_list (Array.map cell values)) ^ "]"

let batch_bodies rows = "{\"tuples\":[" ^ String.concat "," rows ^ "]}"

let create_body ~name attributes rules =
  Json.to_string ~minify:true
    (Json.Obj
       [
         ( "schema",
           Json.Obj
             [
               ("name", Json.String name);
               ("attributes", Json.List (List.map (fun a -> Json.String a) attributes));
             ] );
         ("rules", Json.String rules);
         ("force", Json.Bool true);
       ])

(* The summary line `cfdclean detect` prints. *)
let detect_line rel sigma counts =
  Printf.sprintf "%d tuples, %d clauses: %d violating tuples, vio(D) = %d\n"
    (Relation.cardinality rel) (Array.length sigma) (Hashtbl.length counts)
    (Hashtbl.fold (fun _ n acc -> acc + n) counts 0)

(* Datagen + Noise exactly as `cfdclean generate` runs them (ρ = 5%,
   constant share 0.5), then the extra inputs a workload asks for, all
   derived from the written files so they see what the CLI sees. *)
let gen_orders ~n ~seed ~dir ~reference ~clients ~rows ~batch =
  let path = Filename.concat dir in
  let ds = Datagen.generate (Datagen.default_params ~n_tuples:n ~seed ()) in
  let noise = Noise.inject (Noise.default_params ~seed ()) ds in
  Csv.save_file ds.Datagen.dopt (path "clean.csv");
  Csv.save_file noise.Noise.dirty (path "dirty.csv");
  let rules = Cfd_parser.to_string ds.Datagen.tableaus in
  write_file (path "sigma.cfd") rules;
  if reference || clients > 0 then begin
    let rel = load_csv (path "dirty.csv") in
    if reference then begin
      let sigma = load_sigma (Relation.schema rel) (path "sigma.cfd") in
      write_file (path "reference.txt")
        (detect_line rel sigma (Violation.vio_counts rel sigma))
    end;
    if clients > 0 then begin
      if clients * rows > Relation.cardinality rel then
        fail "gen: %d clients x %d rows exceed the %d generated tuples" clients
          rows (Relation.cardinality rel);
      let attributes = Array.to_list (Schema.attributes (Relation.schema rel)) in
      write_file (path "create.json") (create_body ~name:"orders" attributes rules);
      let tuples = Relation.tuples rel in
      for c = 0 to clients - 1 do
        let slice = Array.sub tuples (c * rows) rows in
        let lines =
          List.init
            ((rows + batch - 1) / batch)
            (fun b ->
              Array.sub slice (b * batch) (min batch (rows - (b * batch)))
              |> Array.to_list
              |> List.map (fun t -> json_row (Tuple.values t))
              |> batch_bodies)
        in
        write_lines (path (Printf.sprintf "client%d.jsonl" c)) lines
      done
    end
  end

(* The tools/soak.py ruleset: two plain FDs plus the conflicting pair
   q1/q2, so every row with A = 1 is quarantined. *)
let soak_rules =
  "p1: [A] -> [B]\n\
   p2: [C] -> [D]\n\
   q1: [A] -> [B] {\n\
  \  (1 || 10)\n\
   }\n\
   q2: [A] -> [B] {\n\
  \  (1 || 20)\n\
   }\n"

(* Batch sizes cycle through 1..8 so every seed writes the same number of
   rows per batch on average; only the values come from the seed. *)
let gen_soak ~seed ~batches ~dir =
  let path = Filename.concat dir in
  let st = Random.State.make [| seed |] in
  write_file (path "create.json") (create_body ~name:"soak" [ "A"; "B"; "C"; "D" ] soak_rules);
  write_file (path "sigma.cfd") soak_rules;
  let row () =
    json_row
      [|
        Value.Int (1 + Random.State.int st 6);
        Value.Int (10 + Random.State.int st 21);
        Value.Int (Random.State.int st 6);
        Value.Int (Random.State.int st 51);
      |]
  in
  write_lines (path "writer.jsonl")
    (List.init batches (fun i -> batch_bodies (List.init (1 + (i mod 8)) (fun _ -> row ()))))

(* ---- check ------------------------------------------------------------ *)

let check ~sigma_path files =
  List.iter
    (fun file ->
      let rel = load_csv file in
      let sigma = load_sigma (Relation.schema rel) sigma_path in
      print_string
        (Json.to_string ~minify:true
           (Json.Obj
              [
                ("file", Json.String file);
                ("tuples", Json.Int (Relation.cardinality rel));
                ("violations", Json.Int (Violation.total rel sigma));
              ]));
      print_newline ())
    files

(* ---- spans ------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int;  (** -1 at the top of a request *)
  rid : string;  (** the request (or CLI invocation) the span belongs to *)
  name : string;
  start : int64;  (** monotonic ns *)
  stop : int64;
  minor : float;  (** Gc words allocated in the minor heap during the span *)
  major : float;  (** ... and directly in the major heap (promotions excluded) *)
}

let spans = ref []

let next_id = ref 0

let open_spans = ref []

let span rid name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let g0 = Gc.quick_stat () in
  let start = Monotonic_clock.now () in
  Fun.protect f ~finally:(fun () ->
      let stop = Monotonic_clock.now () in
      let g1 = Gc.quick_stat () in
      open_spans := List.tl !open_spans;
      spans :=
        {
          id;
          parent;
          rid;
          name;
          start;
          stop;
          minor = g1.Gc.minor_words -. g0.Gc.minor_words;
          major =
            g1.Gc.major_words -. g0.Gc.major_words
            -. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
        }
        :: !spans)

let seconds_of_ns ns = Int64.to_float ns /. 1e9

let duration s = seconds_of_ns (Int64.sub s.stop s.start)

(* Self time: a span's duration minus its children's. *)
let self_times () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    !spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt children s.id)))
    !spans

let write_chrome_trace path =
  let origin = List.fold_left (fun acc s -> min acc s.start) Int64.max_int !spans in
  let us ns = Int64.to_float ns /. 1e3 in
  let selfs = self_times () in
  let event (s, self) =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String "perfbench");
        ("ph", Json.String "X");
        ("ts", Json.Float (us (Int64.sub s.start origin)));
        ("dur", Json.Float (us (Int64.sub s.stop s.start)));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [
              ("rid", Json.String s.rid);
              ("id", Json.Int s.id);
              ("parent", Json.Int s.parent);
              ("self_us", Json.Float (self *. 1e6));
              ("minor_words", Json.Float s.minor);
              ("major_words", Json.Float s.major);
            ] );
      ]
  in
  let events = List.map event (List.sort (fun (a, _) (b, _) -> compare a.id b.id) selfs) in
  write_file path
    (Json.to_string ~minify:true
       (Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]))

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list (List.sort Float.compare xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let has_prefix prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Per request whose id starts with [prefix]: the summed self time of its
   spans named in [names] (requests with none of them are skipped). *)
let per_request ?(value = fun (_, self) -> self) prefix names =
  let totals = Hashtbl.create 64 in
  List.iter
    (fun ((s, _) as entry) ->
      if List.mem s.name names && has_prefix prefix s.rid then
        Hashtbl.replace totals s.rid
          (value entry +. Option.value ~default:0. (Hashtbl.find_opt totals s.rid)))
    (self_times ());
  Hashtbl.fold (fun _ v acc -> v :: acc) totals []

let layer_median prefix name = median (per_request prefix [ name ])

let alloc_mw prefix name =
  median (per_request ~value:(fun (s, _) -> (s.minor +. s.major) /. 1e6) prefix [ name ])

(* The per-request sum of layer medians: what the named layers account
   for, to set against the untraced end-to-end median. *)
let pipeline prefix names = List.fold_left (fun acc n -> acc +. layer_median prefix n) 0. names

(* ---- trace: CLI workloads --------------------------------------------- *)

let phase report name =
  Option.value ~default:0. (List.assoc_opt name report.Report.phases)

let summary_int report name =
  match List.assoc_opt name report.Report.summary with
  | Some (Json.Int n) -> float_of_int n
  | _ -> 0.

(* The CLI's front half (with_inputs in bin/cfdclean.ml): load, parse,
   errors-only lint gate, resolve. *)
let cli_inputs rid dir =
  let path = Filename.concat dir in
  let rel = span rid "csv.load" (fun () -> load_csv (path "dirty.csv")) in
  let ltabs =
    span rid "cfd_parser.parse" (fun () ->
        match Cfd_parser.parse_file_located (path "sigma.cfd") with
        | Ok l -> l
        | Error e -> fail "sigma.cfd: %s" e.Cfd_parser.message)
  in
  let schema = Relation.schema rel in
  let errors =
    span rid "lint.gate" (fun () -> Dq_analysis.Lint.run ~errors_only:true ~schema ltabs)
  in
  if errors <> [] then fail "sigma.cfd has lint errors";
  let sigma =
    span rid "cfd_parser.resolve" (fun () ->
        Cfd_parser.resolve schema (Cfd_parser.Located.strip_all ltabs))
  in
  (rel, sigma)

let front = [ "csv.load"; "cfd_parser.parse"; "lint.gate"; "cfd_parser.resolve" ]

let trace_repair ~dir ~reps =
  let (module E : Engine.ENGINE) = ok_or "engine" (Engine.find "batch") in
  let runs =
    List.init reps (fun k ->
        let rid = Printf.sprintf "inv-%d" k in
        span rid "invocation" (fun () ->
            let rel, sigma = cli_inputs rid dir in
            span rid "satisfiability.check" (fun () ->
                if not (Dq_cfd.Satisfiability.is_satisfiable (Relation.schema rel) sigma)
                then fail "Σ is unsatisfiable";
                ok_or "fragment" (Engine.check_fragment (module E) (Relation.schema rel) sigma));
            let (repaired, _), report =
              Pool.with_pool ~jobs:1 (fun pool ->
                  span rid "batch_repair.run" (fun () ->
                      ok_or "repair" (E.run (Engine.ctx ~pool rel sigma))))
            in
            span rid "csv.save" (fun () ->
                Csv.save_file repaired (Filename.concat dir (rid ^ ".csv")));
            (rel, sigma, repaired, report)))
  in
  let rel, sigma, repaired, report = List.hd runs in
  let m =
    Metrics.evaluate ~dopt:(load_csv (Filename.concat dir "clean.csv")) ~dirty:rel ~repair:repaired
  in
  let med f = median (List.map (fun (_, _, _, r) -> f r) runs) in
  let layers = front @ [ "satisfiability.check"; "batch_repair.run"; "csv.save" ] in
  ( [
      ("csv.load_alloc_mw", alloc_mw "inv-" "csv.load");
      ("cfd_parser.clauses", float_of_int (Array.length sigma));
      ("batch_repair.init_s", med (fun r -> phase r "init"));
      ("batch_repair.initial_scan_s", med (fun r -> phase r "initial_scan"));
      ("batch_repair.resolve_s", med (fun r -> phase r "resolve"));
      ("batch_repair.write_back_s", med (fun r -> phase r "write_back"));
      ("batch_repair.steps", summary_int report "steps");
      ("batch_repair.merges", summary_int report "merges");
      ("batch_repair.rhs_fixes", summary_int report "rhs_fixes");
      ("batch_repair.lhs_fixes", summary_int report "lhs_fixes");
      ("batch_repair.nulls", summary_int report "nulls_introduced");
      ("batch_repair.cells_changed", summary_int report "cells_changed");
      ("batch_repair.alloc_mw", alloc_mw "inv-" "batch_repair.run");
      ("batch_repair.precision", m.Metrics.precision);
      ("batch_repair.recall", m.Metrics.recall);
      ("cost.repair_cost", Dq_core.Cost.repair_cost ~original:rel ~repair:repaired);
    ]
    @ List.map (fun n -> (n ^ "_s", layer_median "inv-" n)) layers,
    pipeline "inv-" layers,
    0. )

let trace_detect ~dir ~reps =
  let runs =
    List.init reps (fun k ->
        let rid = Printf.sprintf "inv-%d" k in
        span rid "invocation" (fun () ->
            let rel, sigma = cli_inputs rid dir in
            Pool.with_pool ~jobs:2 (fun pool ->
                ignore
                  (span rid "violation.vio_counts" (fun () -> Violation.vio_counts ~pool rel sigma)));
            (rel, sigma)))
  in
  (* The same scan on one domain, outside the invocation, for the pool's
     speed-up. *)
  let rel, sigma = List.hd runs in
  for k = 0 to reps - 1 do
    Pool.with_pool ~jobs:1 (fun pool ->
        ignore
          (span (Printf.sprintf "j1-%d" k) "violation.vio_counts" (fun () ->
               Violation.vio_counts ~pool rel sigma)))
  done;
  let j2 = layer_median "inv-" "violation.vio_counts" in
  let j1 = layer_median "j1-" "violation.vio_counts" in
  let layers = front @ [ "violation.vio_counts" ] in
  ( [
      ("csv.load_alloc_mw", alloc_mw "inv-" "csv.load");
      ("cfd_parser.clauses", float_of_int (Array.length sigma));
      ("violation.vio_counts_j1_s", j1);
      ("pool.speedup", if j2 > 0. then j1 /. j2 else 0.);
    ]
    @ List.map (fun n -> (n ^ "_s", layer_median "inv-" n)) layers,
    pipeline "inv-" layers,
    0. )

(* ---- trace: serve workloads ------------------------------------------- *)

let decode_rows body =
  let cell = function
    | Json.Null -> Value.Null
    | Json.Int i -> Value.Int i
    | Json.Float f -> Value.Float f
    | Json.String s -> Value.String s
    | _ -> fail "tuple values must be JSON scalars"
  in
  match Json.parse body with
  | Ok j -> (
    match Json.member "tuples" j with
    | Some (Json.List rows) ->
      List.map
        (function
          | Json.List vs -> (Array.of_list (List.map cell vs), None)
          | _ -> fail "each tuple must be a list")
        rows
    | _ -> fail "body without a tuples list")
  | Error msg -> fail "request body: %s" msg

let outcome_json = function
  | Session.Clean tid -> Json.Obj [ ("tid", Json.Int tid); ("status", Json.String "clean") ]
  | Session.Repaired (tid, cells) ->
    Json.Obj
      [ ("tid", Json.Int tid); ("status", Json.String "repaired"); ("cells_changed", Json.Int cells) ]
  | Session.Quarantined (tid, attrs) ->
    Json.Obj
      [
        ("tid", Json.Int tid);
        ("status", Json.String "quarantined");
        ("attrs", Json.List (List.map (fun p -> Json.Int p) attrs));
      ]

let envelope request report =
  Json.to_string (Dq_obs.Envelope.make ~request ~ok:true ~report ~diagnostics:[] ())

type ingest_totals = {
  mutable reports : Report.t list;
  mutable checkpoint_bytes : float list;
  mutable body_bytes : int;
  mutable quarantined : int;
}

let totals () = { reports = []; checkpoint_bytes = []; body_bytes = 0; quarantined = 0 }

(* One POST /v1/sessions/ID/tuples, layer by layer as the daemon handles
   it: framing, JSON, the engine under the session lock, the checkpoint,
   the response envelope. *)
let replay_ingest tot ~state_dir ~rid (s : Session.t) body =
  let target = Printf.sprintf "/v1/sessions/%s/tuples" s.Session.id in
  let raw =
    Printf.sprintf "POST %s HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s" target
      (String.length body) body
  in
  span rid "request" (fun () ->
      let req =
        span rid "http.parse" (fun () ->
            match Http.parse raw with
            | Ok r -> r
            | Error e -> fail "http: %d %s" e.Http.status e.Http.reason)
      in
      let rows = span rid "json.parse" (fun () -> decode_rows req.Http.body) in
      let outcomes, stats, report =
        span rid "session.ingest" (fun () ->
            Session.with_lock s (fun () -> ok_or "ingest" (Session.ingest ~request_id:rid s rows)))
      in
      let bytes =
        span rid "store.save" (fun () ->
            Session.with_lock s (fun () -> Store.save ~dir:state_dir s))
      in
      ignore
        (span rid "json.encode" (fun () ->
             envelope ("POST " ^ target)
               (Json.Obj
                  [
                    ("session", Json.String s.Session.id);
                    ("batch", Json.Int s.Session.batches);
                    ("ingested", Json.Int (List.length rows));
                    ("outcomes", Json.List (List.map outcome_json outcomes));
                    ("stats", Json.String stats);
                    ("engine_report", Report.stable_json report);
                  ])));
      tot.reports <- report :: tot.reports;
      tot.checkpoint_bytes <- float_of_int bytes :: tot.checkpoint_bytes;
      tot.body_bytes <- tot.body_bytes + String.length body;
      tot.quarantined <-
        tot.quarantined
        + List.length (List.filter (function Session.Quarantined _ -> true | _ -> false) outcomes))

(* The session POST /v1/sessions makes from create.json (engine l-inc,
   the daemon's default; create.json sets force). *)
let open_session ~dir ~id =
  let body =
    match Json.parse (read_file (Filename.concat dir "create.json")) with
    | Ok j -> j
    | Error msg -> fail "create.json: %s" msg
  in
  let field path =
    match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some body) path with
    | Some v -> v
    | None -> fail "create.json: missing %s" (String.concat "." path)
  in
  let str path = match field path with Json.String s -> s | _ -> fail "create.json: bad %s" (String.concat "." path) in
  let attributes =
    match field [ "schema"; "attributes" ] with
    | Json.List l -> List.map (function Json.String a -> a | _ -> fail "create.json: bad attribute") l
    | _ -> fail "create.json: bad schema.attributes"
  in
  ok_or "session"
    (Session.create ~id ~schema_name:(str [ "schema"; "name" ]) ~attributes
       ~rules:(str [ "rules" ]) ~engine:"l-inc" ~force:true ())

let ingest_layers = [ "http.parse"; "json.parse"; "session.ingest"; "store.save"; "json.encode" ]

let ingest_metrics tot =
  let phases name = List.map (fun r -> phase r name) tot.reports in
  let total_bytes = List.fold_left ( +. ) 0. tot.checkpoint_bytes in
  [
    ("inc_repair.order_s", median (phases "order"));
    ("inc_repair.resolve_s", median (phases "resolve"));
    ( "inc_repair.tuples_changed",
      List.fold_left (fun acc r -> acc +. summary_int r "tuples_changed") 0. tot.reports );
    ("session.quarantined", float_of_int tot.quarantined);
    ("session.ingest_alloc_mw", alloc_mw "w-" "session.ingest");
    ("store.bytes_per_batch", median tot.checkpoint_bytes);
    ( "store.write_amplification",
      if tot.body_bytes > 0 then total_bytes /. float_of_int tot.body_bytes else 0. );
  ]
  @ List.map (fun n -> (n ^ "_s", layer_median "w-" n)) ingest_layers

(* Each client's stream into its own session, one after the other: the
   e2e run overlaps them, so the residual includes that contention. *)
let trace_serve_ingest ~dir =
  let state_dir = Filename.concat dir "trace-state" in
  let tot = totals () in
  for c = 0 to 1 do
    let s = open_session ~dir ~id:(Printf.sprintf "trace%d" c) in
    List.iteri
      (fun b body -> replay_ingest tot ~state_dir ~rid:(Printf.sprintf "w-%d-%d" c b) s body)
      (read_lines (Filename.concat dir (Printf.sprintf "client%d.jsonl" c)))
  done;
  (ingest_metrics tot, pipeline "w-" ingest_layers, 0.)

(* The three reads of serve-mixed, rebuilt from the session the way the
   daemon answers them: status and quarantine as JSON envelopes, the
   relation as CSV (streamed in chunks by the daemon). *)
let replay_read ~rid (s : Session.t) kind =
  span rid "read" (fun () ->
      match kind with
      | 'r' ->
        ignore
          (span rid "csv.stream" (fun () -> Session.with_lock s (fun () -> Csv.save_string s.Session.relation)))
      | 's' ->
        ignore
          (span rid "json.encode" (fun () ->
               envelope "GET /v1/sessions/:id"
                 (Session.with_lock s (fun () ->
                      Json.Obj
                        [
                          ("id", Json.String s.Session.id);
                          ("engine", Json.String s.Session.engine);
                          ("tuples", Json.Int (Relation.cardinality s.Session.relation));
                          ("quarantine", Json.Int (List.length s.Session.quarantine));
                          ("batches", Json.Int s.Session.batches);
                          ("repaired", Json.Int s.Session.repaired);
                        ]))))
      | 'q' ->
        ignore
          (span rid "json.encode" (fun () ->
               envelope "GET /v1/sessions/:id/quarantine"
                 (Session.with_lock s (fun () ->
                      Json.Obj
                        [
                          ("session", Json.String s.Session.id);
                          ( "entries",
                            Json.List
                              (List.map
                                 (fun (q : Session.quarantined) ->
                                   Json.Obj
                                     [
                                       ("tid", Json.Int (Tuple.tid q.Session.tuple));
                                       ( "values",
                                         Json.List
                                           (Array.to_list
                                              (Array.map Json.of_value (Tuple.values q.Session.tuple))) );
                                       ("batch", Json.Int q.Session.batch);
                                     ])
                                 s.Session.quarantine) );
                        ]))))
      | c -> fail "unknown read kind %C" c)

let trace_serve_mixed ~dir ~writes ~reads ~read_kinds =
  let state_dir = Filename.concat dir "trace-state" in
  let tot = totals () in
  let s = open_session ~dir ~id:"trace" in
  let bodies = Array.of_list (read_lines (Filename.concat dir "writer.jsonl")) in
  let next_read = ref 0 in
  for i = 0 to writes - 1 do
    replay_ingest tot ~state_dir ~rid:(Printf.sprintf "w-%d" i) s bodies.(i mod Array.length bodies);
    (* Spread the reads evenly between the writes, as the open-loop
       reader does in time. *)
    while !next_read * writes < (i + 1) * reads do
      replay_read ~rid:(Printf.sprintf "r-%d" !next_read) s
        read_kinds.[!next_read mod String.length read_kinds];
      incr next_read
    done
  done;
  (* Reads of different kinds run different layers, so the read pipeline
     is the median of each read's total rather than a sum of medians. *)
  ( ingest_metrics tot @ [ ("csv.stream_s", layer_median "r-" "csv.stream") ],
    pipeline "w-" ingest_layers,
    median (per_request "r-" [ "csv.stream"; "json.encode" ]) )

let trace kind ~dir ~out ~reps ~writes ~reads ~read_kinds =
  let metrics, pipeline_s, read_pipeline_s =
    match kind with
    | "repair" -> trace_repair ~dir ~reps
    | "detect" -> trace_detect ~dir ~reps
    | "serve-ingest" -> trace_serve_ingest ~dir
    | "serve-mixed" -> trace_serve_mixed ~dir ~writes ~reads ~read_kinds
    | k -> fail "trace: unknown workload kind %S" k
  in
  write_chrome_trace out;
  print_string
    (Json.to_string ~minify:true
       (Json.Obj
          [
            ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics));
            ("pipeline_s", Json.Float pipeline_s);
            ("read_pipeline_s", Json.Float read_pipeline_s);
            ("spans", Json.Int (List.length !spans));
          ]));
  print_newline ()

(* ---- command line ----------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | key :: value :: rest when has_prefix "--" key && key <> "--reference" ->
      opts ((key, value) :: acc) rest
    | "--reference" :: rest -> opts (("--reference", "") :: acc) rest
    | positional :: rest ->
      let o, p = opts acc rest in
      (o, positional :: p)
    | [] -> (acc, [])
  in
  let command, rest = match args with c :: r -> (c, r) | [] -> fail "usage: layers gen|check|host|trace ..." in
  let o, positional = opts [] rest in
  let str ?default key =
    match (List.assoc_opt key o, default) with
    | Some v, _ -> v
    | None, Some d -> d
    | None, None -> fail "%s: missing %s" command key
  in
  let int ?default key =
    let v = str ?default:(Option.map string_of_int default) key in
    match int_of_string_opt v with Some i -> i | None -> fail "%s: %s wants an integer" command key
  in
  match (command, positional) with
  | "gen", [ "orders" ] ->
    gen_orders ~n:(int "--n") ~seed:(int "--seed") ~dir:(str "--dir")
      ~reference:(List.mem_assoc "--reference" o)
      ~clients:(int ~default:0 "--clients") ~rows:(int ~default:0 "--rows")
      ~batch:(int ~default:1 "--batch")
  | "gen", [ "soak" ] -> gen_soak ~seed:(int "--seed") ~batches:(int "--batches") ~dir:(str "--dir")
  | "check", (_ :: _ as files) ->
    check ~sigma_path:(str "--sigma") files
  | "host", [] ->
    print_string
      (Json.to_string ~minify:true
         (Json.Obj
            [
              ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
              ("ocaml_version", Json.String Sys.ocaml_version);
            ]));
    print_newline ()
  | "trace", [ kind ] ->
    trace kind ~dir:(str "--dir") ~out:(str "--out") ~reps:(int ~default:1 "--reps")
      ~writes:(int ~default:0 "--writes") ~reads:(int ~default:0 "--reads")
      ~read_kinds:(str ~default:"s" "--read-kinds")
  | _ -> fail "usage: layers gen orders|gen soak|check|host|trace KIND ... (see layers.ml)"
