open Dq_relation
open Dq_cfd
open Dq_analysis
module Engine = Dq_engine.Engine
module Inc_repair = Dq_core.Inc_repair
module Tuple_resolve = Dq_core.Tuple_resolve

let ( let* ) = Result.bind

type quarantined = { tuple : Tuple.t; attrs : int list; batch : int }

type checkpoint =
  | Unsaved
  | Snapshot_due
  | Journal of journal

and journal = {
  snapshot_bytes : int;
  journal_bytes : int;
  covered : int;
  added : Tuple.t list;
  queued : quarantined list;
  dropped : int list;
}

type t = {
  id : string;
  schema : Schema.t;
  rules : string;
  sigma : Cfd.t array;
  engine : string;
  ordering : Inc_repair.ordering;
  relation : Relation.t;
  mutable env : Tuple_resolve.env option;
  mutable next_tid : int;
  mutable quarantine : quarantined list;
  mutable batches : int;
  mutable repaired : int;
  mutable quarantined_total : int;
  mutable resolved : int;
  mutable seq : int;
  mutable checkpoint : checkpoint;
  lock : Mutex.t;
  (* ingest lane: a ticket lock ordering this session's repair jobs
     (FIFO) independently of every other session *)
  lane_lock : Mutex.t;
  lane_turn : Condition.t;
  mutable lane_next : int;
  mutable lane_serving : int;
  (* overload bookkeeping, maintained by the daemon *)
  mutable last_touch : float;  (* Clock.now of the last request *)
  mutable pins : int;  (* handlers currently holding this session *)
  mutable engine_faults : int;  (* consecutive engine faults *)
  mutable breaker_open : bool;
}

let with_lock t f = Mutex.protect t.lock f

(* ---- ingest lane -------------------------------------------------------- *)

let lane_depth t =
  Mutex.protect t.lane_lock (fun () -> t.lane_next - t.lane_serving)

(* Take a ticket and block until it is at the head of the lane; [false]
   (shed, without blocking) when the lane already holds [depth] jobs
   (0 = unbounded).  Pair every [true] with {!lane_exit}. *)
let lane_enter ?(depth = 0) t =
  Mutex.lock t.lane_lock;
  if depth > 0 && t.lane_next - t.lane_serving >= depth then begin
    Mutex.unlock t.lane_lock;
    false
  end
  else begin
    let ticket = t.lane_next in
    t.lane_next <- ticket + 1;
    while t.lane_serving <> ticket do
      Condition.wait t.lane_turn t.lane_lock
    done;
    Mutex.unlock t.lane_lock;
    true
  end

let lane_exit t =
  Mutex.lock t.lane_lock;
  t.lane_serving <- t.lane_serving + 1;
  Condition.broadcast t.lane_turn;
  Mutex.unlock t.lane_lock

let with_lane ?depth t f =
  if lane_enter ?depth t then
    Some (Fun.protect ~finally:(fun () -> lane_exit t) f)
  else None

(* ---- circuit breaker ---------------------------------------------------- *)

(* All breaker state is read and written under the session lock. *)

let touch t = t.last_touch <- Dq_fault.Clock.now ()

let breaker_ok t = not t.breaker_open

(* Record one engine fault; [true] when this fault just opened the
   breaker (threshold 0 = breaker disabled). *)
let breaker_trip ~threshold t =
  t.engine_faults <- t.engine_faults + 1;
  if threshold > 0 && t.engine_faults >= threshold && not t.breaker_open then begin
    t.breaker_open <- true;
    true
  end
  else false

let breaker_note_success t = t.engine_faults <- 0

let breaker_reset t =
  t.breaker_open <- false;
  t.engine_faults <- 0

(* The session id stands in for a file path in gate diagnostics — the
   ruleset arrived in a request body, not from disk. *)
let rules_path id = Printf.sprintf "session %s ruleset" id

let make_schema ~schema_name ~attributes =
  match Schema.make ~name:schema_name attributes with
  | schema -> Ok schema
  | exception Invalid_argument msg -> Error (Dq_error.Invalid_input msg)

let parse_rules ~id rules =
  match Cfd_parser.parse_string_located rules with
  | Ok ltabs -> Ok ltabs
  | Error e ->
    Error
      (Dq_error.Parse
         {
           path = rules_path id;
           line = e.Cfd_parser.line;
           col = e.Cfd_parser.col;
           message = e.Cfd_parser.message;
         })

let resolve_rules schema ltabs =
  match Cfd_parser.resolve schema (Cfd_parser.Located.strip_all ltabs) with
  | sigma -> Ok sigma
  | exception Invalid_argument msg -> Error (Dq_error.Invalid_input msg)

(* The engine behind a session must repair incrementally: a session
   resolves every batch with INCREPAIR in the engine's ordering. *)
let resolve_engine ~engine schema sigma =
  let* (module E : Engine.ENGINE) = Engine.find engine in
  let* ordering =
    match E.ingest with
    | Some ordering -> Ok ordering
    | None ->
      Error
        (Dq_error.Engine_unsupported
           {
             engine = E.name;
             reason =
               "no incremental ingest: serve sessions need an INCREPAIR \
                engine (inc, l-inc or w-inc)";
           })
  in
  let* () = Engine.check_fragment (module E) schema sigma in
  Ok ordering

let session ~id ~schema ~rules ~sigma ~engine ~ordering ~relation ~next_tid
    ~quarantine ~batches ~repaired ~quarantined_total ~resolved ~seq
    ~checkpoint =
  {
    id;
    schema;
    rules;
    sigma;
    engine;
    ordering;
    relation;
    env = None;
    next_tid;
    quarantine;
    batches;
    repaired;
    quarantined_total;
    resolved;
    seq;
    checkpoint;
    lock = Mutex.create ();
    lane_lock = Mutex.create ();
    lane_turn = Condition.create ();
    lane_next = 0;
    lane_serving = 0;
    last_touch = Dq_fault.Clock.now ();
    pins = 0;
    engine_faults = 0;
    breaker_open = false;
  }

(* Creation runs the CLI's gates unconditionally: a session ingests
   unattended, so an oscillation-prone or lint-broken Σ is refused up
   front rather than discovered mid-stream. *)
let create ~id ~schema_name ~attributes ~rules ~engine ?(force = false) () =
  let* schema = make_schema ~schema_name ~attributes in
  let* ltabs = parse_rules ~id rules in
  let* () =
    let errors =
      if force then [] else Lint.run ~errors_only:true ~schema ltabs
    in
    if errors = [] then Ok ()
    else
      Error
        (Dq_error.Lint_gated
           {
             path = rules_path id;
             errors = List.length errors;
             hint = "lint the ruleset with `cfdclean lint`, or pass force";
           })
  in
  let* sigma = resolve_rules schema ltabs in
  let* () =
    if Satisfiability.is_satisfiable schema sigma then Ok ()
    else Error Dq_error.Unsatisfiable
  in
  let* () =
    if force then Ok ()
    else
      match (Interaction.analyze schema sigma).Interaction.termination with
      | Interaction.Terminating -> Ok ()
      | Interaction.May_oscillate cycles ->
        Error
          (Dq_error.Analyze_gated
             {
               path = rules_path id;
               cycles = List.length cycles;
               hint =
                 "run `cfdclean analyze` for the cycle certificates, or pass \
                  force";
             })
  in
  let* ordering = resolve_engine ~engine schema sigma in
  Ok
    (session ~id ~schema ~rules ~sigma ~engine ~ordering
       ~relation:(Relation.create schema) ~next_tid:1 ~quarantine:[]
       ~batches:0 ~repaired:0 ~quarantined_total:0 ~resolved:0 ~seq:0
       ~checkpoint:Unsaved)

let restore ~id ~schema_name ~attributes ~rules ~engine ~relation ~next_tid
    ~quarantine ~batches ~repaired ~quarantined_total ~resolved ~seq =
  let* schema = make_schema ~schema_name ~attributes in
  let* ltabs = parse_rules ~id rules in
  let* sigma = resolve_rules schema ltabs in
  let* ordering = resolve_engine ~engine schema sigma in
  Ok
    (session ~id ~schema ~rules ~sigma ~engine ~ordering ~relation ~next_tid
       ~quarantine ~batches ~repaired ~quarantined_total ~resolved ~seq
       ~checkpoint:Snapshot_due)

(* Number a committed mutation and, while the session journals, keep
   what it changed for the next checkpoint.  The other states write a
   snapshot next, which needs no record of the changes. *)
let note_change t ~added ~queued ~dropped =
  t.seq <- t.seq + 1;
  match t.checkpoint with
  | Journal j ->
    t.checkpoint <-
      Journal
        {
          j with
          added = List.rev_append added j.added;
          queued = List.rev_append queued j.queued;
          dropped = List.rev_append dropped j.dropped;
        }
  | Unsaved | Snapshot_due -> ()

(* ---- the kept environment and undo ------------------------------------ *)

(* The session's INCREPAIR environment, built over the relation by the
   first batch after creation, reload or eviction.  It depends only on
   the relation's tuples in insertion order, so building it again after
   a reload changes no repair. *)
let env t =
  match t.env with
  | Some env -> env
  | None ->
    let env = Tuple_resolve.make_env t.relation t.sigma in
    t.env <- Some env;
    env

(* Return the relation to its first [size] tuples.  A mutation only
   appends to the relation (a quarantine deletes tuples of its own
   batch), so the tuples past [size] are the newest: deleting them
   leaves the rest in order, with the active domains they had.  They
   are deleted through the environment, which stays valid; truncation
   follows an insert, which has built it. *)
let truncate t size =
  let extra = Relation.cardinality t.relation - size in
  if extra > 0 then
    Tuple_resolve.delete (env t)
      (List.map Tuple.tid (Relation.last t.relation extra))

(* The fields a mutation may change are the quarantine list and the
   counters, all immutable values: a shallow copy of the session keeps
   them. *)
type mark = { was : t; size : int }

let mark t =
  { was = { t with seq = t.seq }; size = Relation.cardinality t.relation }

let rollback t { was; size } =
  truncate t size;
  (* The journal's pending changes include the undone mutations, so only
     a snapshot is safe next.  An unsaved session writes one anyway. *)
  (match t.checkpoint with
  | Snapshot_due | Journal _ when t.seq <> was.seq ->
    t.checkpoint <- Snapshot_due
  | Unsaved | Snapshot_due | Journal _ -> ());
  t.quarantine <- was.quarantine;
  t.next_tid <- was.next_tid;
  t.batches <- was.batches;
  t.repaired <- was.repaired;
  t.quarantined_total <- was.quarantined_total;
  t.resolved <- was.resolved;
  t.seq <- was.seq

(* ---- ingest ------------------------------------------------------------ *)

type outcome =
  | Clean of int
  | Repaired of int * int
  | Quarantined of int * int list

let check_row schema (values, weights) =
  let arity = Schema.arity schema in
  if Array.length values <> arity then
    Error
      (Dq_error.Invalid_input
         (Printf.sprintf "tuple has %d values, schema %s has %d attributes"
            (Array.length values) (Schema.name schema) arity))
  else
    match weights with
    | Some w when Array.length w <> arity ->
      Error
        (Dq_error.Invalid_input
           (Printf.sprintf "tuple has %d weights for %d attributes"
              (Array.length w) arity))
    | Some w
      when Array.exists (fun x -> not (x >= 0. && x <= 1.)) w ->
      Error (Dq_error.Invalid_input "weights must lie in [0, 1]")
    | _ -> Ok ()

(* A repair that introduced Null where the submitted tuple had a
   constant could not settle a certain value (Section 3.1) — that tuple
   is unrepairable here and goes to quarantine. *)
let nulled_positions ~submitted ~repaired =
  let out = ref [] in
  for p = Tuple.arity submitted - 1 downto 0 do
    if
      Value.is_null (Tuple.get repaired p)
      && not (Value.is_null (Tuple.get submitted p))
    then out := p :: !out
  done;
  !out

(* A request id makes the batch one trace span carrying it, so the
   engine's phase spans group under the request that caused them. *)
let request_span request_id f =
  match request_id with
  | None -> f ()
  | Some id ->
    Dq_obs.Trace.span ~cat:"serve"
      ~args:(fun () -> [ ("request_id", Dq_obs.Json.String id) ])
      "engine.request" f

(* Repair [delta] into the relation through the kept environment.  A
   deadline cut, an error or an exception commits nothing: the session
   keeps its last consistent relation and the client retries the whole
   batch. *)
let insert ?(deadline = Dq_fault.Deadline.never) ?request_id t delta =
  let size = Relation.cardinality t.relation in
  match
    request_span request_id (fun () ->
        Inc_repair.insert ~ordering:t.ordering ~deadline (env t) delta)
  with
  | Ok (stats, report) when report.Dq_obs.Report.degraded = None ->
    Ok (Inc_repair.stats_line t.ordering stats, report)
  | cut_or_failed ->
    truncate t size;
    Error
      (Result.fold cut_or_failed ~error:Fun.id ~ok:(fun _ ->
           Dq_error.Deadline_exceeded))
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    truncate t size;
    Printexc.raise_with_backtrace e bt

(* Classify each delta tuple against its repaired form, removing the
   unrepairable ones from the relation through the environment (a
   deletion never creates a violation, Section 3.3) and returning them
   as quarantine entries, in submission order. *)
let classify ~batch t delta =
  let queued = ref [] in
  let outcomes =
    List.map
      (fun submitted ->
        let tid = Tuple.tid submitted in
        let repaired = Relation.find_exn t.relation tid in
        match nulled_positions ~submitted ~repaired with
        | [] ->
          let changed = List.length (Tuple.diff_positions submitted repaired) in
          if changed = 0 then Clean tid else Repaired (tid, changed)
        | attrs ->
          queued := { tuple = submitted; attrs; batch } :: !queued;
          Quarantined (tid, attrs))
      delta
  in
  let queued = List.rev !queued in
  if queued <> [] then
    Tuple_resolve.delete (env t) (List.map (fun q -> Tuple.tid q.tuple) queued);
  (outcomes, queued)

let ingest ?deadline ?request_id t rows =
  let* () =
    List.fold_left
      (fun acc row -> Result.bind acc (fun () -> check_row t.schema row))
      (Ok ()) rows
  in
  let delta =
    List.mapi
      (fun i (values, weights) ->
        Tuple.create ?weights ~tid:(t.next_tid + i) values)
      rows
  in
  let size = Relation.cardinality t.relation in
  let* stats, report = insert ?deadline ?request_id t delta in
  let batch = t.batches + 1 in
  let outcomes, queued = classify ~batch t delta in
  (* The batch's surviving rows are the relation's newest. *)
  let added =
    Relation.last t.relation (Relation.cardinality t.relation - size)
  in
  if queued <> [] then t.quarantine <- t.quarantine @ queued;
  t.quarantined_total <- t.quarantined_total + List.length queued;
  t.next_tid <- t.next_tid + List.length rows;
  t.batches <- batch;
  t.repaired <-
    t.repaired
    + List.length
        (List.filter (function Repaired _ -> true | _ -> false) outcomes);
  note_change t ~added ~queued ~dropped:[];
  Ok (outcomes, stats, report)

(* ---- quarantine -------------------------------------------------------- *)

type resolution = Discard | Replace of Value.t array * float array option

let find_quarantined t tid =
  List.find_opt (fun q -> Tuple.tid q.tuple = tid) t.quarantine

let drop_quarantined t tid =
  t.quarantine <- List.filter (fun q -> Tuple.tid q.tuple <> tid) t.quarantine;
  t.resolved <- t.resolved + 1

let resolve ?deadline ?request_id t tid resolution =
  let* (_ : quarantined) =
    match find_quarantined t tid with
    | Some q -> Ok q
    | None ->
      Error
        (Dq_error.Invalid_input
           (Printf.sprintf "no quarantined tuple with tid %d" tid))
  in
  match resolution with
  | Discard ->
    drop_quarantined t tid;
    note_change t ~added:[] ~queued:[] ~dropped:[ tid ];
    Ok (Clean tid)
  | Replace (values, weights) ->
    let* () = check_row t.schema (values, weights) in
    let submitted = Tuple.create ?weights ~tid values in
    let size = Relation.cardinality t.relation in
    let* _stats, _report = insert ?deadline ?request_id t [ submitted ] in
    let repaired = Relation.find_exn t.relation tid in
    (match nulled_positions ~submitted ~repaired with
    | _ :: _ as attrs ->
      truncate t size;
      Error
        (Dq_error.Invalid_input
           (Printf.sprintf
              "resolution for tid %d is still unrepairable (nulled: %s)" tid
              (String.concat ", "
                 (List.map (Schema.attribute t.schema) attrs))))
    | [] ->
      drop_quarantined t tid;
      note_change t ~added:[ repaired ] ~queued:[] ~dropped:[ tid ];
      let changed = List.length (Tuple.diff_positions submitted repaired) in
      Ok (if changed = 0 then Clean tid else Repaired (tid, changed)))
