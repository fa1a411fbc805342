open Dq_relation
module Json = Dq_obs.Json

let ( let* ) = Result.bind

let version = 2

let kind = "serve-session"

(* ---- exact value encoding ---------------------------------------------- *)

(* Mirrors lib/core/checkpoint.ml: floats as C99 hex literals so resumed
   relations render byte-identically, ints tagged so they cannot be
   confused with a float of the same magnitude on the way back in. *)
let value_to_json = function
  | Value.Null -> Json.Null
  | Value.String s -> Json.String s
  | Value.Int n -> Json.Obj [ ("i", Json.Int n) ]
  | Value.Float f -> Json.Obj [ ("f", Json.String (Printf.sprintf "%h" f)) ]

let value_of_json = function
  | Json.Null -> Ok Value.Null
  | Json.String s -> Ok (Value.String s)
  | Json.Obj [ ("i", Json.Int n) ] -> Ok (Value.Int n)
  | Json.Obj [ ("f", Json.String h) ] -> (
    match float_of_string_opt h with
    | Some f -> Ok (Value.Float f)
    | None -> Error (Printf.sprintf "bad float literal %S" h))
  | j -> Error ("unexpected value encoding: " ^ Json.to_string ~minify:true j)

let weight_to_json w = Json.String (Printf.sprintf "%h" w)

let weight_of_json = function
  | Json.String h -> (
    match float_of_string_opt h with
    | Some w -> Ok w
    | None -> Error (Printf.sprintf "bad weight literal %S" h))
  | j -> Error ("unexpected weight encoding: " ^ Json.to_string ~minify:true j)

(* All-1 weight vectors — the default — are omitted from tuple rows. *)
let tuple_to_json t =
  let base =
    [
      ("tid", Json.Int (Tuple.tid t));
      ( "values",
        Json.List
          (Array.to_list (Array.map value_to_json (Tuple.values t))) );
    ]
  in
  let weights =
    List.init (Tuple.arity t) (fun i -> Tuple.weight t i)
  in
  if List.for_all (fun w -> w = 1.) weights then Json.Obj base
  else
    Json.Obj
      (base @ [ ("weights", Json.List (List.map weight_to_json weights)) ])

(* ---- json plumbing ----------------------------------------------------- *)

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let int_field name j =
  let* v = field name j in
  match v with
  | Json.Int n -> Ok n
  | _ -> Error (Printf.sprintf "field %S: expected an integer" name)

let string_field name j =
  let* v = field name j in
  match v with
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "field %S: expected a string" name)

let list_field name j =
  let* v = field name j in
  match v with
  | Json.List l -> Ok l
  | _ -> Error (Printf.sprintf "field %S: expected a list" name)

let map_m f l =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) l
  |> Result.map List.rev

let int_list_field name j =
  let* l = list_field name j in
  map_m
    (function
      | Json.Int n -> Ok n
      | _ -> Error (Printf.sprintf "field %S: expected integers" name))
    l

let tuple_of_json j =
  let* tid = int_field "tid" j in
  let* values = list_field "values" j in
  let* values = map_m value_of_json values in
  let* weights =
    match Json.member "weights" j with
    | None -> Ok None
    | Some (Json.List l) ->
      let* ws = map_m weight_of_json l in
      Ok (Some (Array.of_list ws))
    | Some _ -> Error "field \"weights\": expected a list"
  in
  match Tuple.create ?weights ~tid (Array.of_list values) with
  | t -> Ok t
  | exception Invalid_argument msg -> Error msg

(* ---- session <-> json --------------------------------------------------- *)

let quarantined_to_json (q : Session.quarantined) =
  match tuple_to_json q.Session.tuple with
  | Json.Obj fields ->
    Json.Obj
      (fields
      @ [
          ( "attrs",
            Json.List (List.map (fun a -> Json.Int a) q.Session.attrs) );
          ("batch", Json.Int q.Session.batch);
        ])
  | j -> j

let quarantined_of_json j =
  let* tuple = tuple_of_json j in
  let* attrs = int_list_field "attrs" j in
  let* batch = int_field "batch" j in
  Ok { Session.tuple; attrs; batch }

(* The counters every snapshot and journal record carries. *)
let counters_to_json (s : Session.t) =
  [
    ("next_tid", Json.Int s.Session.next_tid);
    ("batches", Json.Int s.Session.batches);
    ("repaired", Json.Int s.Session.repaired);
    ("quarantined_total", Json.Int s.Session.quarantined_total);
    ("resolved", Json.Int s.Session.resolved);
  ]

let to_json (s : Session.t) =
  Json.Obj
    ([
       ("v", Json.Int version);
       ("kind", Json.String kind);
       ("id", Json.String s.Session.id);
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
       ("engine", Json.String s.Session.engine);
       ("rules", Json.String s.Session.rules);
       ("seq", Json.Int s.Session.seq);
     ]
    @ counters_to_json s
    @ [
        ( "relation",
          Json.List
            (List.map tuple_to_json (Relation.to_list s.Session.relation)) );
        ( "quarantine",
          Json.List (List.map quarantined_to_json s.Session.quarantine) );
      ])

(* One journal record: what the mutations since the last checkpoint
   changed, oldest first, and the counters after them.  It covers the
   mutations numbered [from + 1] to [seq]: one when every mutation is
   saved, more when a save was skipped or failed before writing. *)
let record_to_json (s : Session.t) (j : Session.journal) =
  Json.Obj
    ([
       ("from", Json.Int j.Session.covered);
       ("seq", Json.Int s.Session.seq);
       ("rows", Json.List (List.rev_map tuple_to_json j.Session.added));
       ( "quarantined",
         Json.List (List.rev_map quarantined_to_json j.Session.queued) );
       ( "dropped",
         Json.List (List.rev_map (fun tid -> Json.Int tid) j.Session.dropped)
       );
     ]
    @ counters_to_json s)

(* ---- loading ------------------------------------------------------------ *)

let counters_of_json j =
  let* next_tid = int_field "next_tid" j in
  let* batches = int_field "batches" j in
  let* repaired = int_field "repaired" j in
  let* quarantined_total = int_field "quarantined_total" j in
  let* resolved = int_field "resolved" j in
  Ok (next_tid, batches, repaired, quarantined_total, resolved)

let add_rows rel rows =
  let* tuples = map_m tuple_of_json rows in
  match List.iter (Relation.add rel) tuples with
  | () -> Ok ()
  | exception Invalid_argument msg -> Error msg

(* The session a snapshot holds; {!load} replays the journal onto it and
   then sets its checkpoint state. *)
let of_json j =
  let* v = int_field "v" j in
  let* () =
    (* version 1 predates the journal: no "seq", nothing to replay *)
    if v = 1 || v = version then Ok ()
    else Error (Printf.sprintf "unsupported session file version %d" v)
  in
  let* k = string_field "kind" j in
  let* () =
    if String.equal k kind then Ok ()
    else Error (Printf.sprintf "not a session file (kind %S)" k)
  in
  let* id = string_field "id" j in
  let* schema = field "schema" j in
  let* schema_name = string_field "name" schema in
  let* attributes = list_field "attributes" schema in
  let* attributes =
    map_m
      (function
        | Json.String a -> Ok a
        | _ -> Error "field \"attributes\": expected strings")
      attributes
  in
  let* engine = string_field "engine" j in
  let* rules = string_field "rules" j in
  let* seq = if v = 1 then Ok 0 else int_field "seq" j in
  let* next_tid, batches, repaired, quarantined_total, resolved =
    counters_of_json j
  in
  let* rows = list_field "relation" j in
  let* quarantine = list_field "quarantine" j in
  let* quarantine = map_m quarantined_of_json quarantine in
  let* relation =
    match Schema.make ~name:schema_name attributes with
    | schema ->
      let rel = Relation.create schema in
      let* () = add_rows rel rows in
      Ok rel
    | exception Invalid_argument msg -> Error msg
  in
  Result.map_error Dq_error.to_string
    (Session.restore ~id ~schema_name ~attributes ~rules ~engine ~relation
       ~next_tid ~quarantine ~batches ~repaired ~quarantined_total ~resolved
       ~seq)

(* Replay one journal record onto the session.  Records the snapshot
   already covers are skipped: a crash between a compaction's rename and
   the journal's removal leaves them behind. *)
let replay (s : Session.t) j =
  let* from = int_field "from" j in
  let* seq = int_field "seq" j in
  if seq <= s.Session.seq then Ok ()
  else if from <> s.Session.seq then
    Error
      (Printf.sprintf "record of mutations %d to %d does not follow mutation %d"
         (from + 1) seq s.Session.seq)
  else
    let* rows = list_field "rows" j in
    let* queued = list_field "quarantined" j in
    let* queued = map_m quarantined_of_json queued in
    let* dropped = int_list_field "dropped" j in
    let* next_tid, batches, repaired, quarantined_total, resolved =
      counters_of_json j
    in
    let* () = add_rows s.Session.relation rows in
    (* A dropped tid is never queued again (new tuples get fresh tids),
       so appending before dropping is right for a record that covers
       several mutations too. *)
    s.Session.quarantine <-
      List.filter
        (fun q -> not (List.mem (Tuple.tid q.Session.tuple) dropped))
        (s.Session.quarantine @ queued);
    s.Session.next_tid <- next_tid;
    s.Session.batches <- batches;
    s.Session.repaired <- repaired;
    s.Session.quarantined_total <- quarantined_total;
    s.Session.resolved <- resolved;
    s.Session.seq <- seq;
    Ok ()

(* The journal's newline-terminated records, and whether a torn one
   (a failed append, never acknowledged) follows them. *)
let records contents =
  match List.rev (String.split_on_char '\n' contents) with
  | tail :: complete -> (List.rev complete, tail <> "")
  | [] -> ([], false)

(* ---- files -------------------------------------------------------------- *)

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdirs parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let path ~dir id = Filename.concat dir (id ^ ".json")

let journal_of file = Filename.remove_extension file ^ ".journal"

let remove file = if Sys.file_exists file then Sys.remove file

(* Everything up to the session's last mutation is on disk. *)
let on_disk (s : Session.t) ~snapshot_bytes ~journal_bytes =
  Session.Journal
    {
      snapshot_bytes;
      journal_bytes;
      covered = s.Session.seq;
      added = [];
      queued = [];
      dropped = [];
    }

(* A snapshot covers every mutation so far, so it ends the journal.  A
   session with nothing on disk yet removes a journal left under its id
   by an earlier session {e first}: were the order reversed, a crash
   between the two steps would replay that journal onto this snapshot.
   Otherwise the journal goes only after the rename, and a crash in
   between leaves records the snapshot's [seq] already covers. *)
let snapshot ~dir (s : Session.t) =
  let file = path ~dir s.Session.id in
  (match s.Session.checkpoint with
  | Session.Unsaved -> remove (journal_of file)
  | Session.Snapshot_due | Session.Journal _ -> ());
  let contents = Json.to_string (to_json s) in
  Dq_fault.Atomic_io.write_file file contents;
  remove (journal_of file);
  let bytes = String.length contents in
  s.Session.checkpoint <- on_disk s ~snapshot_bytes:bytes ~journal_bytes:0;
  bytes

(* A failed append may leave a torn record behind, so the next
   checkpoint is a snapshot: a torn record is only ever the last line. *)
let append ~dir (s : Session.t) (j : Session.journal) =
  let record = Json.to_string ~minify:true (record_to_json s j) ^ "\n" in
  (match
     Dq_fault.Atomic_io.append_file
       (journal_of (path ~dir s.Session.id))
       record
   with
  | () -> ()
  | exception e ->
    s.Session.checkpoint <- Session.Snapshot_due;
    raise e);
  let bytes = String.length record in
  s.Session.checkpoint <-
    on_disk s ~snapshot_bytes:j.Session.snapshot_bytes
      ~journal_bytes:(j.Session.journal_bytes + bytes);
  bytes

let save ~dir (s : Session.t) =
  mkdirs dir;
  match s.Session.checkpoint with
  | Session.Journal j when j.Session.covered = s.Session.seq -> 0
  | Session.Journal j when j.Session.journal_bytes <= j.Session.snapshot_bytes
    ->
    append ~dir s j
  | Session.Journal _ | Session.Snapshot_due | Session.Unsaved ->
    snapshot ~dir s

let delete ~dir id =
  let file = path ~dir id in
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ file; journal_of file ]

let read_file file =
  match In_channel.with_open_bin file In_channel.input_all with
  | s -> Ok s
  | exception Sys_error msg -> Error msg

let load file =
  let in_file file r = Result.map_error (fun msg -> file ^ ": " ^ msg) r in
  let* snapshot = read_file file in
  let* s = in_file file (Result.bind (Json.parse snapshot) of_json) in
  let journal = journal_of file in
  let* contents =
    if Sys.file_exists journal then read_file journal else Ok ""
  in
  let complete, torn = records contents in
  let* (_ : int) =
    List.fold_left
      (fun line_no line ->
        let* n = line_no in
        let* () =
          in_file
            (Printf.sprintf "%s: line %d" journal n)
            (Result.bind (Json.parse line) (replay s))
        in
        Ok (n + 1))
      (Ok 1) complete
  in
  s.Session.checkpoint <-
    (if torn then Session.Snapshot_due
     else
       on_disk s ~snapshot_bytes:(String.length snapshot)
         ~journal_bytes:(String.length contents));
  Ok s

let load_id ~dir id = load (path ~dir id)

let load_dir dir =
  mkdirs dir;
  match Sys.readdir dir with
  | files ->
    Array.sort String.compare files;
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> map_m (fun f ->
           let* s = load (Filename.concat dir f) in
           Ok (f, s))
  | exception Sys_error msg -> Error msg
