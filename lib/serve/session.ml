open Dq_relation
open Dq_cfd
open Dq_analysis
module Engine = Dq_engine.Engine

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
  mutable relation : Relation.t;
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
  mutable last_touch : float;  (* wall clock of the last request *)
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

let touch t = t.last_touch <- Unix.gettimeofday ()

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

(* The engine behind a session must repair incrementally: sessions only
   ever call [ingest]. *)
let resolve_engine ~engine schema sigma =
  let* (module E : Engine.ENGINE) = Engine.find engine in
  let* () =
    if E.supports_ingest then Ok ()
    else
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
  Ok (module E : Engine.ENGINE)

let session ~id ~schema ~rules ~sigma ~engine ~relation ~next_tid ~quarantine
    ~batches ~repaired ~quarantined_total ~resolved ~seq ~checkpoint =
  {
    id;
    schema;
    rules;
    sigma;
    engine;
    relation;
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
    last_touch = Unix.gettimeofday ();
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
  let* (module _ : Engine.ENGINE) = resolve_engine ~engine schema sigma in
  Ok
    (session ~id ~schema ~rules ~sigma ~engine
       ~relation:(Relation.create schema) ~next_tid:1 ~quarantine:[]
       ~batches:0 ~repaired:0 ~quarantined_total:0 ~resolved:0 ~seq:0
       ~checkpoint:Unsaved)

let restore ~id ~schema_name ~attributes ~rules ~engine ~relation ~next_tid
    ~quarantine ~batches ~repaired ~quarantined_total ~resolved ~seq =
  let* schema = make_schema ~schema_name ~attributes in
  let* ltabs = parse_rules ~id rules in
  let* sigma = resolve_rules schema ltabs in
  let* (module _ : Engine.ENGINE) = resolve_engine ~engine schema sigma in
  Ok
    (session ~id ~schema ~rules ~sigma ~engine ~relation ~next_tid ~quarantine
       ~batches ~repaired ~quarantined_total ~resolved ~seq
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

let ingest_delta ?pool ?(deadline = Dq_fault.Deadline.never) ?request_id t
    delta =
  let* (module E : Engine.ENGINE) =
    resolve_engine ~engine:t.engine t.schema t.sigma
  in
  let ctx = Engine.ctx ?pool ~deadline ?request_id t.relation t.sigma in
  let* (repaired_rel, stats), report = E.ingest ctx delta in
  (* A deadline cut mid-batch commits nothing: the session keeps its
     last consistent relation and the client retries the whole batch. *)
  if report.Dq_obs.Report.degraded <> None then Error Dq_error.Deadline_exceeded
  else Ok ((repaired_rel, stats), report)

(* Classify each delta tuple against its repaired form, removing the
   unrepairable ones from [rel] (a deletion never creates a violation,
   Section 3.3) and returning them as quarantine entries, in submission
   order. *)
let classify ~batch rel delta =
  let queued = ref [] in
  let outcomes =
    List.map
      (fun submitted ->
        let tid = Tuple.tid submitted in
        let repaired = Relation.find_exn rel tid in
        match nulled_positions ~submitted ~repaired with
        | [] ->
          let changed = List.length (Tuple.diff_positions submitted repaired) in
          if changed = 0 then Clean tid else Repaired (tid, changed)
        | attrs ->
          ignore (Relation.delete rel tid);
          queued := { tuple = submitted; attrs; batch } :: !queued;
          Quarantined (tid, attrs))
      delta
  in
  (outcomes, List.rev !queued)

let ingest ?pool ?deadline ?request_id t rows =
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
  let* (repaired_rel, stats), report =
    ingest_delta ?pool ?deadline ?request_id t delta
  in
  let batch = t.batches + 1 in
  let outcomes, queued = classify ~batch repaired_rel delta in
  (* The engine returns the old relation's tuples, unchanged and in
     order, followed by the delta's: the batch's rows are the newest. *)
  let added =
    Relation.last repaired_rel
      (Relation.cardinality repaired_rel - Relation.cardinality t.relation)
  in
  t.relation <- repaired_rel;
  t.quarantine <- t.quarantine @ queued;
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

let resolve ?pool ?deadline ?request_id t tid resolution =
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
    let* (repaired_rel, _stats), _report =
      ingest_delta ?pool ?deadline ?request_id t [ submitted ]
    in
    let repaired = Relation.find_exn repaired_rel tid in
    (match nulled_positions ~submitted ~repaired with
    | _ :: _ as attrs ->
      Error
        (Dq_error.Invalid_input
           (Printf.sprintf
              "resolution for tid %d is still unrepairable (nulled: %s)" tid
              (String.concat ", "
                 (List.map (Schema.attribute t.schema) attrs))))
    | [] ->
      t.relation <- repaired_rel;
      drop_quarantined t tid;
      note_change t ~added:[ repaired ] ~queued:[] ~dropped:[ tid ];
      let changed = List.length (Tuple.diff_positions submitted repaired) in
      Ok (if changed = 0 then Clean tid else Repaired (tid, changed)))
