open Dq_relation
module Json = Dq_obs.Json
module Envelope = Dq_obs.Envelope
module Report = Dq_obs.Report
module Log = Dq_obs.Log
module Metrics = Dq_obs.Metrics
module Trace = Dq_obs.Trace
module Deadline = Dq_fault.Deadline
module Fault = Dq_fault.Fault
module Clock = Dq_fault.Clock
module Pool = Dq_parallel.Pool
module Engine = Dq_engine.Engine

let ( let* ) = Result.bind

(* Reported by /v1/health; keep in sync with the cfdclean man page
   version in bin/cfdclean.ml. *)
let version = "1.0.0"

(* Overload limits, all off by default: one request per connection,
   unbounded admission, no timeouts, no breaker, no eviction. *)
type limits = {
  max_connections : int;
  max_inflight : int;
  queue_depth : int;
  ingest_workers : int;
  keep_alive : bool;
  idle_timeout_s : float;
  read_timeout_s : float;
  evict_idle_s : float;
  breaker_threshold : int;
  drain_timeout_s : float;
}

let default_limits =
  {
    max_connections = 0;
    max_inflight = 0;
    queue_depth = 0;
    ingest_workers = 0;
    keep_alive = false;
    idle_timeout_s = 5.;
    read_timeout_s = 0.;
    evict_idle_s = 0.;
    breaker_threshold = 0;
    drain_timeout_s = 30.;
  }

type config = {
  port : int;
  state_dir : string option;
  resume : bool;
  slow_request_s : float option;
  limits : limits;
}

(* The daemon-wide instruments, registered at [start] — never at module
   initialisation, which would leak serve counters into every binary
   that links this library (the CLI's [--metrics] snapshot is a pinned
   golden).  Per-(route, status) request counters, per-route latency
   histograms and the per-reason shed counter are labeled instruments,
   registered on demand as traffic arrives. *)
type instruments = {
  sessions_live : Metrics.gauge;
  quarantine_depth : Metrics.gauge;
  uptime : Metrics.gauge;
  connections_live : Metrics.gauge;
  inflight_gauge : Metrics.gauge;
  ingest_queue_depth : Metrics.gauge;
  sessions_failed : Metrics.gauge;
  gc_heap_words : Metrics.gauge;
  gc_minor_words : Metrics.gauge;
  gc_major_words : Metrics.gauge;
  gc_compactions : Metrics.gauge;
  ingest_batch : Metrics.histogram;
  checkpoint_bytes : Metrics.histogram;
  checkpoint_seconds : Metrics.timer;
  drain_seconds : Metrics.histogram;
}

let register_instruments () =
  {
    sessions_live = Metrics.gauge "serve.sessions_live";
    quarantine_depth = Metrics.gauge "serve.quarantine_depth";
    uptime = Metrics.gauge "serve.uptime_seconds";
    connections_live = Metrics.gauge "serve.connections_live";
    inflight_gauge = Metrics.gauge "serve.inflight";
    ingest_queue_depth = Metrics.gauge "serve.ingest_queue_depth";
    sessions_failed = Metrics.gauge "serve.sessions_failed";
    gc_heap_words = Metrics.gauge "gc.heap_words";
    gc_minor_words = Metrics.gauge "gc.minor_words";
    gc_major_words = Metrics.gauge "gc.major_words";
    gc_compactions = Metrics.gauge "gc.compactions";
    ingest_batch =
      Metrics.histogram ~buckets:Metrics.size_buckets "serve.ingest_batch_size";
    checkpoint_bytes =
      Metrics.histogram ~buckets:Metrics.size_buckets "serve.checkpoint_bytes";
    checkpoint_seconds = Metrics.timer "serve.checkpoint_seconds";
    drain_seconds = Metrics.histogram "serve.drain_seconds";
  }

(* A registry slot.  [Evicted] marks a session the idle sweeper has
   checkpointed and dropped from memory; the next request naming it
   reloads from the state directory transparently. *)
type entry = Live of Session.t | Evicted

type state = Running | Draining | Stopped

(* One live connection: its socket (so drain can force-close stragglers)
   and its handler thread (so [stop] can join finished handlers instead
   of racing them into [Pool.shutdown]). *)
type conn = { cfd : Unix.file_descr; mutable thread : Thread.t option }

type t = {
  sock : Unix.file_descr;
  bound_port : int;
  state_dir : string option;
  pool : Pool.t;
      (** runs whole engine jobs on [limits.ingest_workers] domains
          ({!Pool.exec}); with none, on the handler thread *)
  limits : limits;
  sessions : (string, entry) Hashtbl.t;
  registry : Mutex.t;  (** guards [sessions], [next_id] and pin counts *)
  reload : Mutex.t;  (** serializes evicted-session reloads *)
  slow_request_s : float option;
  instruments : instruments;
  started : float;  (** {!Clock.now} at [start], for uptime *)
  id_prefix : string;  (** per-process prefix of generated request ids *)
  req_counter : int Atomic.t;
  mutable next_id : int;
  lifecycle : Mutex.t;  (** guards [state] transitions *)
  mutable state : state;
  cm : Mutex.t;  (** guards [conns] and [next_tok] *)
  conns : (int, conn) Hashtbl.t;
  mutable next_tok : int;
  inflight : int Atomic.t;
  mutable acceptor : Thread.t option;
  mutable sweeper : Thread.t option;
}

let port t = t.bound_port

let status_of_error = function
  | Dq_error.No_such_session _ -> 404
  | Dq_error.Parse _ | Dq_error.Invalid_input _ | Dq_error.Invalid_config _
  | Dq_error.Would_overwrite _ | Dq_error.Unknown_engine _ ->
    400
  | Dq_error.Lint_gated _ | Dq_error.Analyze_gated _ | Dq_error.Unsatisfiable
  | Dq_error.Engine_unsupported _ ->
    422
  | Dq_error.Queue_full _ -> 429
  | Dq_error.Unavailable _ | Dq_error.Breaker_open _ -> 503
  | Dq_error.Deadline_exceeded -> 504
  | Dq_error.Io _ | Dq_error.Fault_injected _ | Dq_error.Internal _ -> 500

(* The envelope's [request] field: verb plus canonical path (query
   dropped), e.g. ["POST /v1/sessions/s1/tuples"]. *)
let request_name (r : Http.request) =
  r.Http.meth ^ " /" ^ String.concat "/" r.Http.path

(* ---- responses as values ------------------------------------------------- *)

(* Handlers build a response value instead of writing to the socket, so
   one central path ({!send_response}) stamps every response with its
   request-id header, counts the bytes, records the route metrics and
   emits the access-log line — error paths included. *)
type response = {
  status : int;
  content_type : string;
  headers : (string * string) list;
  body : string;
}

let json_response ?(headers = []) ~status j =
  {
    status;
    content_type = "application/json";
    headers;
    body = Json.to_string j;
  }

let ok_response ?(status = 200) ~request ~id report =
  json_response ~status
    (Envelope.make ~request ~id ~ok:true ~report ~diagnostics:[] ())

let err_response ?status ?headers ~request ~id e =
  let status =
    match status with Some s -> s | None -> status_of_error e
  in
  json_response ?headers ~status
    (Envelope.error ~request ~id (Dq_error.to_json e))

(* Per-reason load-shed counter; reasons are a small fixed set
   (queue_full, inflight, connections, draining). *)
let shed reason =
  Metrics.incr (Metrics.counter ~labels:[ ("reason", reason) ] "serve.shed")

(* ---- request ids --------------------------------------------------------- *)

(* A client-supplied [x-request-id] is echoed after sanitising (so a log
   line is one JSON token no matter what arrived); otherwise an id is
   generated. *)
let sanitize_request_id s =
  let b = Buffer.create (min (String.length s) 64) in
  String.iter
    (fun c ->
      if Buffer.length b < 64 then
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' ->
          Buffer.add_char b c
        | _ -> ())
    s;
  if Buffer.length b = 0 then None else Some (Buffer.contents b)

let fresh_request_id d =
  Printf.sprintf "%s-%06d" d.id_prefix (Atomic.fetch_and_add d.req_counter 1)

let request_id_of d (r : Http.request) =
  match Option.bind (Http.header r "x-request-id") sanitize_request_id with
  | Some id -> id
  | None -> fresh_request_id d

(* ---- request decoding --------------------------------------------------- *)

let parse_body (r : Http.request) =
  match Json.parse r.Http.body with
  | Ok j -> Ok j
  | Error msg -> Error (Dq_error.Invalid_input ("request body: " ^ msg))

(* A body field through one of [Json]'s readers, its message as
   [Invalid_input]; an absent field takes [default] when there is one. *)
let body_field ?default read name j =
  match (default, Json.member name j) with
  | Some d, None -> Ok d
  | _ -> Result.map_error (fun msg -> Dq_error.Invalid_input msg) (read name j)

(* A relation value in a request body: a plain JSON scalar. *)
let value_of_json = function
  | Json.Null -> Ok Value.Null
  | Json.Int n -> Ok (Value.Int n)
  | Json.Float f -> Ok (Value.Float f)
  | Json.String s -> Ok (Value.String s)
  | j ->
    Error
      (Dq_error.Invalid_input
         ("tuple values must be JSON scalars, got "
         ^ String.trim (Json.to_string ~minify:true j)))

let values_of_json l =
  let* vs = Json.map_result value_of_json l in
  Ok (Array.of_list vs)

let weights_of_json j =
  match Json.member "weights" j with
  | None -> Ok None
  | Some _ ->
    let* ws = body_field Json.list_field "weights" j in
    let* ws =
      Json.map_result
        (function
          | Json.Int n -> Ok (float_of_int n)
          | Json.Float f -> Ok f
          | _ -> Error (Dq_error.Invalid_input "weights must be numbers"))
        ws
    in
    Ok (Some (Array.of_list ws))

(* One submitted tuple: either a bare array of values, or an object
   [{"values": [...], "weights": [...]}] carrying per-attribute
   confidence weights (Section 3.2). *)
let row_of_json = function
  | Json.List l ->
    let* values = values_of_json l in
    Ok (values, None)
  | Json.Obj _ as j ->
    let* values = body_field Json.list_field "values" j in
    let* values = values_of_json values in
    let* weights = weights_of_json j in
    Ok (values, weights)
  | _ ->
    Error
      (Dq_error.Invalid_input
         "each tuple must be a list of values or {\"values\": ..., \
          \"weights\": ...}")

let deadline_of_request (r : Http.request) =
  match Http.header r "x-deadline-seconds" with
  | None -> Ok Deadline.never
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some secs when secs >= 0. -> Ok (Deadline.after secs)
    | _ ->
      Error
        (Dq_error.Invalid_input
           (Printf.sprintf "x-deadline-seconds: bad value %S" s)))

(* ---- response fragments -------------------------------------------------- *)

let session_status (s : Session.t) =
  Json.Obj
    [
      ("id", Json.String s.Session.id);
      ("engine", Json.String s.Session.engine);
      ( "schema",
        Json.Obj
          [
            ("name", Json.String (Schema.name s.Session.schema));
            ( "attributes",
              Json.List
                (Array.to_list
                   (Array.map
                      (fun a -> Json.String a)
                      (Schema.attributes s.Session.schema))) );
          ] );
      ("tuples", Json.Int (Relation.cardinality s.Session.relation));
      ("next_tid", Json.Int s.Session.next_tid);
      ("batches", Json.Int s.Session.batches);
      ("repaired", Json.Int s.Session.repaired);
      ("quarantine", Json.Int (List.length s.Session.quarantine));
      ("quarantined_total", Json.Int s.Session.quarantined_total);
      ("resolved", Json.Int s.Session.resolved);
      ( "state",
        Json.String
          (if s.Session.breaker_open then "engine_failed" else "active") );
      ("engine_faults", Json.Int s.Session.engine_faults);
    ]

let outcome_json schema = function
  | Session.Clean tid ->
    Json.Obj [ ("tid", Json.Int tid); ("status", Json.String "clean") ]
  | Session.Repaired (tid, cells) ->
    Json.Obj
      [
        ("tid", Json.Int tid);
        ("status", Json.String "repaired");
        ("cells_changed", Json.Int cells);
      ]
  | Session.Quarantined (tid, attrs) ->
    Json.Obj
      [
        ("tid", Json.Int tid);
        ("status", Json.String "quarantined");
        ( "attrs",
          Json.List
            (List.map (fun p -> Json.String (Schema.attribute schema p)) attrs)
        );
      ]

let quarantined_json schema (q : Session.quarantined) =
  Json.Obj
    [
      ("tid", Json.Int (Tuple.tid q.Session.tuple));
      ("batch", Json.Int q.Session.batch);
      ( "attrs",
        Json.List
          (List.map
             (fun p -> Json.String (Schema.attribute schema p))
             q.Session.attrs) );
      ( "values",
        Json.List
          (Array.to_list
             (Array.map Json.of_value (Tuple.values q.Session.tuple))) );
    ]

(* ---- session registry ---------------------------------------------------- *)

(* Checkpoint a committed mutation before the response goes out.  Caller
   holds the session lock, so the snapshot is the acknowledged state. *)
let save_session d s =
  match d.state_dir with
  | None -> ()
  | Some dir ->
    let i = d.instruments in
    let bytes =
      Metrics.time i.checkpoint_seconds (fun () -> Store.save ~dir s)
    in
    Metrics.observe i.checkpoint_bytes (float_of_int bytes)

(* Pin a session for the duration of one request: bump its pin count
   (the sweeper never evicts a pinned session) and stamp its idle clock.
   An [Evicted] slot is reloaded from the state directory first —
   serialized by [d.reload] so a thundering herd loads the file once. *)
let rec pin_session d sid =
  let slot =
    Mutex.protect d.registry (fun () ->
        match Hashtbl.find_opt d.sessions sid with
        | None -> Error (Dq_error.No_such_session sid)
        | Some (Live s) ->
          s.Session.pins <- s.Session.pins + 1;
          Session.touch s;
          Ok (Some s)
        | Some Evicted -> Ok None)
  in
  match slot with
  | Error _ as e -> e
  | Ok (Some s) -> Ok s
  | Ok None ->
    let reloaded =
      Mutex.protect d.reload (fun () ->
          let still_evicted =
            Mutex.protect d.registry (fun () ->
                match Hashtbl.find_opt d.sessions sid with
                | Some Evicted -> true
                | _ -> false)
          in
          if not still_evicted then Ok ()
          else
            match d.state_dir with
            | None ->
              Error
                (Dq_error.Internal
                   ("evicted session without a state directory: " ^ sid))
            | Some dir -> (
              match Store.load_id ~dir sid with
              | Error msg -> Error (Dq_error.Io msg)
              | Ok s ->
                Mutex.protect d.registry (fun () ->
                    match Hashtbl.find_opt d.sessions sid with
                    | Some Evicted -> Hashtbl.replace d.sessions sid (Live s)
                    | _ -> ());
                Log.info "session.reload" (fun () ->
                    [ ("session", Json.String sid) ]);
                Ok ()))
    in
    let* () = reloaded in
    pin_session d sid

(* Whether [s] is still the registry's live session under its id.  A
   session is checkpointed only under its lock and only while this holds:
   {!handle_delete} unregisters a session before it takes that lock to
   remove the files, so no checkpoint can write them back. *)
let registered d (s : Session.t) =
  Mutex.protect d.registry (fun () ->
      match Hashtbl.find_opt d.sessions s.Session.id with
      | Some (Live s') -> s' == s
      | _ -> false)

let unpin d (s : Session.t) =
  Mutex.protect d.registry (fun () -> s.Session.pins <- s.Session.pins - 1)

let with_session d sid f =
  let* s = pin_session d sid in
  Fun.protect ~finally:(fun () -> unpin d s) (fun () -> f s)

(* ---- handlers ------------------------------------------------------------ *)

let handle_health d ~request ~id =
  let sessions = Mutex.protect d.registry (fun () -> Hashtbl.length d.sessions) in
  let uptime = int_of_float (Clock.now () -. d.started) in
  let state =
    match d.state_dir with
    | None ->
      Json.Obj [ ("persistent", Json.Bool false); ("dir", Json.Null) ]
    | Some dir ->
      Json.Obj [ ("persistent", Json.Bool true); ("dir", Json.String dir) ]
  in
  ok_response ~request ~id
    (Json.Obj
       [
         ("status", Json.String "ok");
         ("version", Json.String version);
         ("uptime_s", Json.Int uptime);
         ("sessions", Json.Int sessions);
         ("state", state);
         ( "engines",
           Json.List (List.map (fun n -> Json.String n) (Engine.names ())) );
       ])

(* /v1/metrics is the one endpoint outside the envelope: Prometheus text
   exposition, scraped verbatim.  Gauges that mirror daemon state are
   refreshed here, at scrape time, rather than maintained on every
   mutation. *)
let handle_metrics d =
  let i = d.instruments in
  let live =
    Mutex.protect d.registry (fun () ->
        Hashtbl.to_seq_values d.sessions
        |> Seq.filter_map (function Live s -> Some s | Evicted -> None)
        |> List.of_seq)
  in
  let qdepth =
    List.fold_left
      (fun acc (s : Session.t) ->
        acc + Session.with_lock s (fun () -> List.length s.Session.quarantine))
      0 live
  in
  let lanes =
    List.fold_left
      (fun acc (s : Session.t) -> acc + Session.lane_depth s)
      0 live
  in
  let failed =
    List.length
      (List.filter (fun (s : Session.t) -> s.Session.breaker_open) live)
  in
  Metrics.set_gauge i.sessions_live (float_of_int (List.length live));
  Metrics.set_gauge i.quarantine_depth (float_of_int qdepth);
  Metrics.set_gauge i.uptime (Clock.now () -. d.started);
  Metrics.set_gauge i.connections_live
    (float_of_int (Mutex.protect d.cm (fun () -> Hashtbl.length d.conns)));
  Metrics.set_gauge i.inflight_gauge (float_of_int (Atomic.get d.inflight));
  Metrics.set_gauge i.ingest_queue_depth (float_of_int lanes);
  Metrics.set_gauge i.sessions_failed (float_of_int failed);
  (* A young handler thread reads zeroed quick_stat counters until it has
     been through a minor collection; force one (cheap, bounded by the
     minor heap) so the gauges are real. *)
  Gc.minor ();
  let st = Gc.quick_stat () in
  Metrics.set_gauge i.gc_heap_words (float_of_int st.Gc.heap_words);
  Metrics.set_gauge i.gc_minor_words st.Gc.minor_words;
  Metrics.set_gauge i.gc_major_words st.Gc.major_words;
  Metrics.set_gauge i.gc_compactions (float_of_int st.Gc.compactions);
  {
    status = 200;
    content_type = "text/plain; version=0.0.4";
    headers = [];
    body = Metrics.to_prometheus ();
  }

let handle_create d ~request ~id:rid (r : Http.request) =
  let result =
    let* body = parse_body r in
    let* schema = body_field Json.field "schema" body in
    let* schema_name = body_field Json.string_field "name" schema in
    let* attributes = body_field Json.list_field "attributes" schema in
    let* attributes =
      Json.map_result
        (function
          | Json.String a -> Ok a
          | _ ->
            Error
              (Dq_error.Invalid_input "field \"attributes\": expected strings"))
        attributes
    in
    let* rules = body_field Json.string_field "rules" body in
    (* l-inc is the default session engine: its linear tuple ordering
       makes batch-split ingest equal one-shot ingest (the determinism
       property the test suite checks). *)
    let* engine = body_field ~default:"l-inc" Json.string_field "engine" body in
    let* force = body_field ~default:false Json.bool_field "force" body in
    let* s =
      Mutex.protect d.registry (fun () ->
          let id = Printf.sprintf "s%d" d.next_id in
          let* s =
            Session.create ~id ~schema_name ~attributes ~rules ~engine ~force ()
          in
          d.next_id <- d.next_id + 1;
          Ok s)
    in
    (* The session joins the registry only once its snapshot is on
       disk: a create whose checkpoint fails answers 500 and leaves no
       session behind. *)
    Session.with_lock s (fun () -> save_session d s);
    Mutex.protect d.registry (fun () ->
        Hashtbl.replace d.sessions s.Session.id (Live s));
    Ok s
  in
  match result with
  | Error e -> err_response ~request ~id:rid e
  | Ok s ->
    Log.info "session.create" (fun () ->
        [
          ("session", Json.String s.Session.id);
          ("engine", Json.String s.Session.engine);
          ("id", Json.String rid);
        ]);
    ok_response ~request ~id:rid ~status:201
      (Session.with_lock s (fun () -> session_status s))

(* Listing snapshots the registry under its lock but reads each
   session's status outside it — taking every session lock while
   holding the registry lock would stall creates and lookups behind
   the slowest ingest. *)
let handle_list d ~request ~id =
  let entries =
    Mutex.protect d.registry (fun () -> List.of_seq (Hashtbl.to_seq d.sessions))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let statuses =
    List.map
      (fun (sid, entry) ->
        match entry with
        | Live s -> Session.with_lock s (fun () -> session_status s)
        | Evicted ->
          Json.Obj
            [ ("id", Json.String sid); ("state", Json.String "evicted") ])
      entries
  in
  ok_response ~request ~id (Json.Obj [ ("sessions", Json.List statuses) ])

let handle_status d ~request ~id sid =
  match
    with_session d sid (fun s ->
        Ok (Session.with_lock s (fun () -> session_status s)))
  with
  | Error e -> err_response ~request ~id e
  | Ok status -> ok_response ~request ~id status

(* Unregister first, so no new request can pin the session, then remove
   its files under its lock.  A job already running on the session's lane
   holds that lock, so it commits before the files go; a job still
   queued finds the session unregistered and commits nothing. *)
let handle_delete d ~request ~id sid =
  match
    Mutex.protect d.registry (fun () ->
        let entry = Hashtbl.find_opt d.sessions sid in
        Hashtbl.remove d.sessions sid;
        entry)
  with
  | None -> err_response ~request ~id (Dq_error.No_such_session sid)
  | Some entry ->
    let forget () = Option.iter (fun dir -> Store.delete ~dir sid) d.state_dir in
    (match entry with
    | Live s -> Session.with_lock s forget
    | Evicted -> forget ());
    ok_response ~request ~id (Json.Obj [ ("deleted", Json.String sid) ])

(* Breaker bookkeeping around one engine invocation; caller holds the
   session lock.  Only infrastructure failures count as engine faults:
   injected faults and internal errors, not client mistakes or
   deadline cuts. *)
let note_engine_result d (s : Session.t) = function
  | Ok _ -> Session.breaker_note_success s
  | Error (Dq_error.Fault_injected _ | Dq_error.Internal _) ->
    if Session.breaker_trip ~threshold:d.limits.breaker_threshold s then begin
      Metrics.incr (Metrics.counter "serve.breaker_opened");
      Log.warn "session.breaker" (fun () ->
          [
            ("session", Json.String s.Session.id);
            ("faults", Json.Int s.Session.engine_faults);
          ])
    end
  | Error _ -> ()

(* Admission check, deliberately lockless: the session lock is held for
   the whole engine job, and blocking on it here would serialize
   admission behind running work (a full lane could never shed fast and
   a quarantined session could never fail fast).  The flag is a mutable
   bool written under the lock; a torn-in-time read at worst admits one
   request that then records its own fault. *)
let check_breaker (s : Session.t) =
  if Session.breaker_ok s then Ok ()
  else
    Error
      (Dq_error.Breaker_open
         { session = s.Session.id; faults = s.Session.engine_faults })

(* The two mutating endpoints share this shape: queue the job on the
   session's FIFO lane (shedding at [queue_depth]), run the engine under
   the session lock on a worker domain, checkpoint, answer.  A job that
   fails leaves the session as it was; a checkpoint that fails takes the
   committed job back before the error answer goes out, so a client that
   retries it cannot apply it twice.  A job whose session was deleted
   while it waited answers 404. *)
let run_engine_job d (s : Session.t) job =
  match
    Session.with_lane ~depth:d.limits.queue_depth s (fun () ->
        Pool.exec d.pool (fun () ->
            Session.with_lock s (fun () ->
                let* () =
                  if registered d s then Ok ()
                  else Error (Dq_error.No_such_session s.Session.id)
                in
                let before = Session.mark s in
                let res =
                  try
                    Fault.hit "serve.ingest";
                    job ()
                  with Fault.Injected site ->
                    Error (Dq_error.Fault_injected site)
                in
                note_engine_result d s res;
                let* payload = res in
                match save_session d s with
                | () -> Ok payload
                | exception e ->
                  let bt = Printexc.get_raw_backtrace () in
                  Session.rollback s before;
                  Printexc.raise_with_backtrace e bt)))
  with
  | None ->
    Error
      (Dq_error.Queue_full
         { session = s.Session.id; depth = d.limits.queue_depth })
  | Some r -> r

let handle_ingest d ~request ~id:rid (r : Http.request) sid =
  let result =
    with_session d sid (fun s ->
        let* () = check_breaker s in
        let* deadline = deadline_of_request r in
        let* body = parse_body r in
        let* rows = body_field Json.list_field "tuples" body in
        let* rows = Json.map_result row_of_json rows in
        Metrics.observe d.instruments.ingest_batch
          (float_of_int (List.length rows));
        run_engine_job d s (fun () ->
            let* outcomes, stats, report =
              Session.ingest ~deadline ~request_id:rid s rows
            in
            Ok
              (Json.Obj
                 [
                   ("session", Json.String sid);
                   ("batch", Json.Int s.Session.batches);
                   ("ingested", Json.Int (List.length rows));
                   ( "outcomes",
                     Json.List
                       (List.map (outcome_json s.Session.schema) outcomes) );
                   ("stats", Json.String stats);
                   ("engine_report", Report.stable_json report);
                 ])))
  in
  match result with
  | Error (Dq_error.Queue_full _ as e) ->
    shed "queue_full";
    err_response ~headers:[ ("retry-after", "1") ] ~request ~id:rid e
  | Error e -> err_response ~request ~id:rid e
  | Ok report -> ok_response ~request ~id:rid report

let handle_relation d ~request ~id sid =
  match
    with_session d sid (fun s ->
        (* Render under the lock, send outside it. *)
        Ok (Session.with_lock s (fun () -> Csv.save_string s.Session.relation)))
  with
  | Error e -> err_response ~request ~id e
  | Ok csv -> { status = 200; content_type = "text/csv"; headers = []; body = csv }

let handle_quarantine d ~request ~id sid =
  match
    with_session d sid (fun s ->
        Ok
          (Session.with_lock s (fun () ->
               Json.Obj
                 [
                   ("session", Json.String sid);
                   ( "entries",
                     Json.List
                       (List.map
                          (quarantined_json s.Session.schema)
                          s.Session.quarantine) );
                 ])))
  with
  | Error e -> err_response ~request ~id e
  | Ok body -> ok_response ~request ~id body

let handle_resolve d ~request ~id:rid (r : Http.request) sid tid_str =
  let result =
    with_session d sid (fun s ->
        let* () = check_breaker s in
        let* tid =
          match int_of_string_opt tid_str with
          | Some t -> Ok t
          | None ->
            Error (Dq_error.Invalid_input (Printf.sprintf "bad tid %S" tid_str))
        in
        let* deadline = deadline_of_request r in
        let* body = parse_body r in
        let* resolution =
          match (Json.member "action" body, Json.member "values" body) with
          | Some (Json.String "discard"), None -> Ok Session.Discard
          | (None | Some (Json.String "replace")), Some (Json.List l) ->
            let* values = values_of_json l in
            let* weights = weights_of_json body in
            Ok (Session.Replace (values, weights))
          | _ ->
            Error
              (Dq_error.Invalid_input
                 "resolve body must be {\"action\": \"discard\"} or \
                  {\"values\": [...]}")
        in
        run_engine_job d s (fun () ->
            let* outcome =
              Session.resolve ~deadline ~request_id:rid s tid resolution
            in
            Ok
              (Json.Obj
                 [
                   ("session", Json.String sid);
                   ("resolved", Json.Int tid);
                   ("outcome", outcome_json s.Session.schema outcome);
                 ])))
  in
  match result with
  | Error (Dq_error.Queue_full _ as e) ->
    shed "queue_full";
    err_response ~headers:[ ("retry-after", "1") ] ~request ~id:rid e
  | Error e -> err_response ~request ~id:rid e
  | Ok report -> ok_response ~request ~id:rid report

(* Operator resume of a quarantined session: close the breaker, zero the
   fault count, answer with the (now active) status. *)
let handle_resume d ~request ~id:rid sid =
  match
    with_session d sid (fun s ->
        Ok
          (Session.with_lock s (fun () ->
               Session.breaker_reset s;
               session_status s)))
  with
  | Error e -> err_response ~request ~id:rid e
  | Ok status ->
    Log.info "session.resume" (fun () ->
        [ ("session", Json.String sid); ("id", Json.String rid) ]);
    ok_response ~request ~id:rid status

(* ---- dispatch ------------------------------------------------------------ *)

(* The one route table: for each endpoint, its template (what metrics
   and access-log lines are keyed by — a bounded label set, ids collapsed
   to [:id]), the session id the path names, if any, and its handler. *)
let route d (r : Http.request) =
  match (r.Http.meth, r.Http.path) with
  | "GET", [ "v1"; "health" ] -> ("GET /v1/health", None, handle_health d)
  | "GET", [ "v1"; "metrics" ] ->
    ("GET /v1/metrics", None, fun ~request:_ ~id:_ -> handle_metrics d)
  | "POST", [ "v1"; "sessions" ] ->
    ("POST /v1/sessions", None, handle_create d r)
  | "GET", [ "v1"; "sessions" ] -> ("GET /v1/sessions", None, handle_list d)
  | "GET", [ "v1"; "sessions"; sid ] ->
    ("GET /v1/sessions/:id", Some sid, handle_status d sid)
  | "DELETE", [ "v1"; "sessions"; sid ] ->
    ("DELETE /v1/sessions/:id", Some sid, handle_delete d sid)
  | "POST", [ "v1"; "sessions"; sid; "tuples" ] ->
    ("POST /v1/sessions/:id/tuples", Some sid, handle_ingest d r sid)
  | "POST", [ "v1"; "sessions"; sid; "resume" ] ->
    ("POST /v1/sessions/:id/resume", Some sid, handle_resume d sid)
  | "GET", [ "v1"; "sessions"; sid; "relation" ] ->
    ("GET /v1/sessions/:id/relation", Some sid, handle_relation d sid)
  | "GET", [ "v1"; "sessions"; sid; "quarantine" ] ->
    ("GET /v1/sessions/:id/quarantine", Some sid, handle_quarantine d sid)
  | "POST", [ "v1"; "sessions"; sid; "quarantine"; tid; "resolve" ] ->
    ( "POST /v1/sessions/:id/quarantine/:tid/resolve",
      Some sid,
      handle_resolve d r sid tid )
  | _, _ ->
    ( "(unmatched)",
      None,
      fun ~request ~id ->
        err_response ~status:404 ~request ~id
          (Dq_error.Invalid_input ("no such endpoint: " ^ request)) )

(* Write the response, then account for it: the per-route request
   counter and latency histogram, one [http.access] log line carrying
   the request id, and the slow-request warning.  A peer that vanished
   mid-write still gets accounted, with [bytes] logged as 0. *)
let send_response d fd ~meth ~route ~session ~id ~keep_alive ~t0 resp =
  let headers = resp.headers @ [ ("x-request-id", id) ] in
  let bytes =
    try
      Http.respond fd ~status:resp.status ~content_type:resp.content_type
        ~headers ~keep_alive resp.body;
      String.length resp.body
    with Http.Closed -> 0
  in
  let dt = Clock.now () -. t0 in
  Metrics.incr
    (Metrics.counter
       ~labels:[ ("route", route); ("status", string_of_int resp.status) ]
       "serve.requests");
  Metrics.observe
    (Metrics.histogram ~labels:[ ("route", route) ] "serve.request_seconds")
    dt;
  let fields () =
    [
      ("method", Json.String meth);
      ("route", Json.String route);
      ("status", Json.Int resp.status);
      ("latency_s", Json.Float dt);
      ("bytes", Json.Int bytes);
    ]
    @ (match session with
      | Some s -> [ ("session", Json.String s) ]
      | None -> [])
    @ [ ("id", Json.String id) ]
  in
  Log.info "http.access" fields;
  match d.slow_request_s with
  | Some limit when dt > limit ->
    Log.warn "http.slow" (fun () ->
        fields () @ [ ("threshold_s", Json.Float limit) ])
  | _ -> ()

(* Serve one parsed request; the [bool] result is whether the connection
   survives for another request.  Admission control happens here, before
   any routing work: a draining daemon refuses everything (and closes),
   a daemon at its in-flight ceiling refuses mutating and read traffic
   but keeps the connection (health and metrics stay reachable so
   operators can watch an overloaded daemon). *)
let serve_request d fd ~keep_alive ~last_id (r : Http.request) =
  let request = request_name r in
  let route_tmpl, session, handler = route d r in
  let id = request_id_of d r in
  last_id := Some id;
  let t0 = Clock.now () in
  if d.state <> Running then begin
    shed "draining";
    send_response d fd ~meth:r.Http.meth ~route:route_tmpl ~session ~id
      ~keep_alive:false ~t0
      (err_response ~request ~id
         (Dq_error.Unavailable "draining: daemon is shutting down"));
    false
  end
  else begin
    let exempt =
      route_tmpl = "GET /v1/health" || route_tmpl = "GET /v1/metrics"
    in
    let cur = Atomic.fetch_and_add d.inflight 1 in
    Fun.protect
      ~finally:(fun () -> Atomic.decr d.inflight)
      (fun () ->
        if
          d.limits.max_inflight > 0
          && (not exempt)
          && cur >= d.limits.max_inflight
        then begin
          shed "inflight";
          send_response d fd ~meth:r.Http.meth ~route:route_tmpl ~session ~id
            ~keep_alive ~t0
            (err_response ~headers:[ ("retry-after", "1") ] ~request ~id
               (Dq_error.Unavailable
                  "at capacity: too many requests in flight"));
          keep_alive
        end
        else begin
          let resp =
            Trace.span ~cat:"serve"
              ~args:(fun () ->
                [
                  ("route", Json.String route_tmpl);
                  ("request_id", Json.String id);
                ])
              "http.request"
              (fun () ->
                try handler ~request ~id with
                | Deadline.Expired ->
                  err_response ~request ~id Dq_error.Deadline_exceeded
                | Fault.Injected site ->
                  err_response ~request ~id (Dq_error.Fault_injected site)
                | Sys_error msg -> err_response ~request ~id (Dq_error.Io msg)
                | exn ->
                  err_response ~request ~id
                    (Dq_error.Internal (Printexc.to_string exn)))
          in
          send_response d fd ~meth:r.Http.meth ~route:route_tmpl ~session ~id
            ~keep_alive ~t0 resp;
          keep_alive
        end)
  end

let conn_forget d tok =
  Mutex.protect d.cm (fun () -> Hashtbl.remove d.conns tok)

(* One connection: read requests until the peer closes, a framing error
   answers 4xx, keep-alive is off, or the idle timeout fires.  The
   catch-all is deliberate — a handler bug must cost one connection and
   one [http.error] line, never the daemon. *)
let handle_connection d tok fd =
  let last_id = ref None in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      conn_forget d tok)
    (fun () ->
      try
        Fault.hit "serve.accept";
        let rd = Http.reader fd in
        let read_timeout =
          if d.limits.read_timeout_s > 0. then Some d.limits.read_timeout_s
          else None
        in
        let rec loop ~first =
          let idle_timeout =
            if first then read_timeout else Some d.limits.idle_timeout_s
          in
          match Http.read_request ?idle_timeout ?read_timeout rd with
          | Ok None -> ()
          | Ok (Some r) ->
            let keep_alive = d.limits.keep_alive && r.Http.persistent in
            if serve_request d fd ~keep_alive ~last_id r then
              loop ~first:false
          | Error fe ->
            let t0 = Clock.now () in
            let id = fresh_request_id d in
            send_response d fd ~meth:"-" ~route:"(malformed)" ~session:None
              ~id ~keep_alive:false ~t0
              (err_response ~status:fe.Http.status ~request:"(malformed)" ~id
                 (Dq_error.Invalid_input fe.Http.reason))
        in
        loop ~first:true
      with
      | Http.Closed -> ()
      | exn ->
        Log.error "http.error" (fun () ->
            ("error", Json.String (Printexc.to_string exn))
            :: (match !last_id with
               | Some i -> [ ("id", Json.String i) ]
               | None -> [])))

(* ---- lifecycle ----------------------------------------------------------- *)

(* Refuse a connection past [max_connections] without spawning a
   handler: best-effort 503 (bounded by a one-second send timeout so a
   non-reading peer cannot stall the acceptor), then close. *)
let shed_connection d fd =
  shed "connections";
  let id = fresh_request_id d in
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  (try
     Http.respond fd ~status:503 ~headers:[ ("x-request-id", id) ]
       (Json.to_string
          (Envelope.error ~request:"(connection)" ~id
             (Dq_error.to_json (Dq_error.Unavailable "connection limit reached"))))
   with Http.Closed | Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop d =
  let rec go () =
    match Unix.accept d.sock with
    | fd, _ ->
      let admitted =
        d.limits.max_connections = 0
        || Mutex.protect d.cm (fun () -> Hashtbl.length d.conns)
           < d.limits.max_connections
      in
      if not admitted then shed_connection d fd
      else begin
        let tok, conn =
          Mutex.protect d.cm (fun () ->
              let tok = d.next_tok in
              d.next_tok <- tok + 1;
              let c = { cfd = fd; thread = None } in
              Hashtbl.replace d.conns tok c;
              (tok, c))
        in
        let th = Thread.create (handle_connection d tok) fd in
        Mutex.protect d.cm (fun () -> conn.thread <- Some th)
      end;
      go ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
      () (* socket closed by [stop] *)
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> go ()
  in
  go ()

(* ---- idle sweeper --------------------------------------------------------- *)

(* Checkpoint-and-drop sessions idle past [evict_idle_s].  A session is
   evictable only when nothing references it: no pins, an empty lane, an
   uncontended lock, and a closed breaker (a quarantined session stays
   resident so its [engine_failed] state remains operator-visible). *)
let sweep_once d =
  let evict = d.limits.evict_idle_s in
  let now = Clock.now () in
  let stale =
    Mutex.protect d.registry (fun () ->
        Hashtbl.to_seq d.sessions
        |> Seq.filter_map (fun (sid, entry) ->
               match entry with
               | Live s
                 when s.Session.pins = 0
                      && (not s.Session.breaker_open)
                      && now -. s.Session.last_touch >= evict ->
                 Some (sid, s)
               | _ -> None)
        |> List.of_seq)
  in
  List.iter
    (fun (sid, (s : Session.t)) ->
      if Mutex.try_lock s.Session.lock then
        Fun.protect
          ~finally:(fun () -> Mutex.unlock s.Session.lock)
          (fun () ->
            if Session.lane_depth s = 0 && registered d s then begin
              (match d.state_dir with
              | Some dir -> ignore (Store.save ~dir s)
              | None -> ());
              let evicted =
                Mutex.protect d.registry (fun () ->
                    match Hashtbl.find_opt d.sessions sid with
                    | Some (Live s') when s' == s && s.Session.pins = 0 ->
                      Hashtbl.replace d.sessions sid Evicted;
                      true
                    | _ -> false)
              in
              if evicted then
                Log.info "session.evict" (fun () ->
                    [ ("session", Json.String sid) ])
            end))
    stale

let sweeper_loop d =
  let tick = Stdlib.min 0.5 (Stdlib.max 0.05 (d.limits.evict_idle_s /. 4.)) in
  let rec go () =
    if d.state = Running then begin
      Thread.delay tick;
      (if d.state = Running then
         try sweep_once d
         with exn ->
           Log.error "serve.sweep" (fun () ->
               [ ("error", Json.String (Printexc.to_string exn)) ]));
      go ()
    end
  in
  go ()

(* Resumed session files are named ID.json, ids are s<N>: continue the
   counter past the largest N on disk. *)
let next_id_after sessions =
  1
  + List.fold_left
      (fun acc (s : Session.t) ->
        match
          if String.length s.Session.id > 1 && s.Session.id.[0] = 's' then
            int_of_string_opt
              (String.sub s.Session.id 1 (String.length s.Session.id - 1))
          else None
        with
        | Some n -> max acc n
        | None -> acc)
      0 sessions

let validate_limits (config : config) =
  let l = config.limits in
  let nonneg name v =
    if v < 0 then
      Error
        (Dq_error.Invalid_input
           (Printf.sprintf "%s must be >= 0 (got %d)" name v))
    else Ok ()
  in
  let nonnegf name v =
    if v < 0. then
      Error
        (Dq_error.Invalid_input
           (Printf.sprintf "%s must be >= 0 (got %g)" name v))
    else Ok ()
  in
  let* () = nonneg "max-connections" l.max_connections in
  let* () = nonneg "max-inflight" l.max_inflight in
  let* () = nonneg "queue-depth" l.queue_depth in
  let* () = nonneg "ingest-workers" l.ingest_workers in
  let* () = nonneg "breaker-threshold" l.breaker_threshold in
  let* () = nonnegf "idle-timeout" l.idle_timeout_s in
  let* () = nonnegf "read-timeout" l.read_timeout_s in
  let* () = nonnegf "evict-idle" l.evict_idle_s in
  let* () = nonnegf "drain-timeout" l.drain_timeout_s in
  if l.evict_idle_s > 0. && config.state_dir = None then
    Error
      (Dq_error.Invalid_input
         "idle eviction requires a state directory (--state-dir)")
  else Ok ()

let start config =
  (* A peer that disappears mid-response must surface as EPIPE, not kill
     the daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let* () = validate_limits config in
  let* loaded =
    match (config.resume, config.state_dir) with
    | true, None ->
      Error (Dq_error.Invalid_input "resume requires a state directory")
    | true, Some dir -> (
      match Store.load_dir dir with
      | Ok pairs -> Ok (List.map snd pairs)
      | Error msg -> Error (Dq_error.Io (dir ^ ": " ^ msg)))
    | false, _ -> Ok []
  in
  (* The caller counts as one of a pool's jobs, and an [exec] caller
     waits rather than helps, so N ingest workers are N + 1 jobs. *)
  let pool = Pool.create ~jobs:(config.limits.ingest_workers + 1) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, config.port));
    Unix.listen sock 64;
    Unix.getsockname sock
  with
  | exception Unix.Unix_error (err, _, _) ->
    (try Unix.close sock with Unix.Unix_error _ -> ());
    Pool.shutdown pool;
    Error
      (Dq_error.Io
         (Printf.sprintf "cannot listen on 127.0.0.1:%d: %s" config.port
            (Unix.error_message err)))
  | addr ->
    let bound_port =
      match addr with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> 0
    in
    let instruments = register_instruments () in
    let started = Clock.now () in
    let d =
      {
        sock;
        bound_port;
        state_dir = config.state_dir;
        pool;
        limits = config.limits;
        sessions = Hashtbl.create 16;
        registry = Mutex.create ();
        reload = Mutex.create ();
        slow_request_s = config.slow_request_s;
        instruments;
        started;
        id_prefix =
          Printf.sprintf "%04x%04x"
            (Unix.getpid () land 0xffff)
            (int_of_float (started *. 1000.) land 0xffff);
        req_counter = Atomic.make 1;
        next_id = next_id_after loaded;
        lifecycle = Mutex.create ();
        state = Running;
        cm = Mutex.create ();
        conns = Hashtbl.create 64;
        next_tok = 0;
        inflight = Atomic.make 0;
        acceptor = None;
        sweeper = None;
      }
    in
    List.iter
      (fun (s : Session.t) -> Hashtbl.replace d.sessions s.Session.id (Live s))
      loaded;
    Log.info "serve.start" (fun () ->
        [
          ("port", Json.Int bound_port);
          ( "state_dir",
            match config.state_dir with
            | Some dir -> Json.String dir
            | None -> Json.Null );
          ("ingest_workers", Json.Int config.limits.ingest_workers);
          ("resumed_sessions", Json.Int (List.length loaded));
        ]);
    d.acceptor <- Some (Thread.create accept_loop d);
    if config.limits.evict_idle_s > 0. then
      d.sweeper <- Some (Thread.create sweeper_loop d);
    Ok d

let wait d = match d.acceptor with Some t -> Thread.join t | None -> ()

(* Graceful drain.  Flip to [Draining] (new requests answer 503 and
   close), stop accepting, then wait — bounded by [drain_timeout_s] —
   for in-flight and lane-queued work to finish; stragglers get their
   sockets force-closed.  Only after the last handler thread is gone are
   the sessions given a final checkpoint and the pool shut down; a job a
   leaked handler sends after that runs inline. *)
let stop d =
  let proceed =
    Mutex.protect d.lifecycle (fun () ->
        match d.state with
        | Running ->
          d.state <- Draining;
          true
        | Draining | Stopped -> false)
  in
  if proceed then begin
    let t0 = Clock.now () in
    let conn_count () =
      Mutex.protect d.cm (fun () -> Hashtbl.length d.conns)
    in
    let snapshot =
      Mutex.protect d.cm (fun () -> List.of_seq (Hashtbl.to_seq d.conns))
    in
    Log.info "serve.drain" (fun () ->
        [
          ("connections", Json.Int (List.length snapshot));
          ("inflight", Json.Int (Atomic.get d.inflight));
        ]);
    (* Closing an fd does not wake a thread already blocked in accept(2);
       shutdown does (the accept fails with EINVAL). *)
    (try Unix.shutdown d.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close d.sock with Unix.Unix_error _ -> ());
    (match d.acceptor with Some t -> Thread.join t | None -> ());
    d.acceptor <- None;
    (match d.sweeper with Some t -> Thread.join t | None -> ());
    d.sweeper <- None;
    let deadline = t0 +. Stdlib.max 0.05 d.limits.drain_timeout_s in
    while conn_count () > 0 && Clock.now () < deadline do
      Thread.delay 0.01
    done;
    let lingering =
      Mutex.protect d.cm (fun () -> List.of_seq (Hashtbl.to_seq_values d.conns))
    in
    if lingering <> [] then begin
      Log.warn "serve.drain.force" (fun () ->
          [ ("connections", Json.Int (List.length lingering)) ]);
      List.iter
        (fun c ->
          try Unix.shutdown c.cfd Unix.SHUTDOWN_ALL
          with Unix.Unix_error _ -> ())
        lingering;
      let grace = Clock.now () +. 1.0 in
      while conn_count () > 0 && Clock.now () < grace do
        Thread.delay 0.01
      done
    end;
    let leaked = conn_count () in
    if leaked > 0 then
      Log.warn "serve.drain.leak" (fun () ->
          [ ("connections", Json.Int leaked) ]);
    (* Join every handler thread that has left the connection table —
       it is at (or within microseconds of) exit, so each join is
       bounded; threads still in the table after the force-close grace
       are leaked deliberately rather than blocking shutdown. *)
    let gone =
      let live =
        Mutex.protect d.cm (fun () ->
            List.of_seq (Hashtbl.to_seq_keys d.conns))
      in
      List.filter (fun (tok, _) -> not (List.mem tok live)) snapshot
    in
    List.iter
      (fun (_, c) ->
        match c.thread with Some th -> Thread.join th | None -> ())
      gone;
    (* Final checkpoint: persist any session whose lock is free (busy
       ones — leaked handlers — already checkpoint per mutation). *)
    (match d.state_dir with
    | None -> ()
    | Some dir ->
      let live =
        Mutex.protect d.registry (fun () ->
            Hashtbl.to_seq_values d.sessions
            |> Seq.filter_map (function Live s -> Some s | Evicted -> None)
            |> List.of_seq)
      in
      List.iter
        (fun (s : Session.t) ->
          if Mutex.try_lock s.Session.lock then
            Fun.protect
              ~finally:(fun () -> Mutex.unlock s.Session.lock)
              (fun () -> if registered d s then ignore (Store.save ~dir s)))
        live);
    Pool.shutdown d.pool;
    let drain_s = Clock.now () -. t0 in
    Metrics.observe d.instruments.drain_seconds drain_s;
    Mutex.protect d.lifecycle (fun () -> d.state <- Stopped);
    Log.info "serve.stop" (fun () ->
        [ ("port", Json.Int d.bound_port); ("drain_s", Json.Float drain_s) ])
  end
