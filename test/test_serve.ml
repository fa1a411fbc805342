(* The serve daemon stack, bottom to top: HTTP framing on plain strings,
   session semantics (ingest, quarantine, resolve), the crash-safe store
   round-trip, the batch-split determinism property the ingest queue
   promises, and an end-to-end socket test covering restart
   byte-identity.  The true kill -9 crash is exercised by the CI smoke
   job; here the restart path is driven in-process. *)

open Dq_relation
open Dq_cfd
module Http = Dq_serve.Http
module Session = Dq_serve.Session
module Store = Dq_serve.Store
module Serve = Dq_serve.Serve
module Json = Dq_obs.Json

let unwrap = function
  | Ok x -> x
  | Error e -> Alcotest.failf "serve error: %s" (Dq_error.to_string e)

(* ---- HTTP framing ------------------------------------------------------- *)

let test_http_parse () =
  let r =
    match
      Http.parse
        "POST /v1/sessions/s1/tuples?x=1 HTTP/1.1\r\nContent-Length: \
         4\r\nX-Deadline-Seconds: 2.5\r\n\r\nbodyEXTRA"
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "parse: %s" e.Http.reason
  in
  Alcotest.(check string) "method" "POST" r.Http.meth;
  Alcotest.(check (list string))
    "path split, query dropped"
    [ "v1"; "sessions"; "s1"; "tuples" ]
    r.Http.path;
  Alcotest.(check string) "body sized by content-length" "body" r.Http.body;
  Alcotest.(check (option string))
    "case-insensitive header" (Some "2.5")
    (Http.header r "x-deadline-seconds")

let test_http_parse_bare_lf () =
  match Http.parse "GET /v1/health HTTP/1.1\n\n" with
  | Ok r -> Alcotest.(check string) "target" "/v1/health" r.Http.target
  | Error e -> Alcotest.failf "bare-LF head rejected: %s" e.Http.reason

let test_http_parse_errors () =
  let err input =
    match Http.parse input with
    | Ok _ -> Alcotest.failf "accepted %S" input
    | Error e -> e
  in
  let check_err name input status needle =
    let e = err input in
    Alcotest.(check int) (name ^ ": status") status e.Http.status;
    Alcotest.(check bool)
      (name ^ ": reason")
      true
      (Helpers.contains e.Http.reason needle)
  in
  check_err "unterminated head" "GET / HTTP/1.1\r\n" 400 "not terminated";
  check_err "truncated body" "GET / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc"
    400 "truncated";
  check_err "bad request line" "NONSENSE\r\n\r\n" 400 "malformed request line";
  check_err "bad content-length" "GET / HTTP/1.1\r\ncontent-length: -4\r\n\r\n"
    400 "bad content-length";
  (* RFC 9112 §6.3: no transfer coding is implemented, and two lengths
     that disagree leave the body's end unknown. *)
  check_err "transfer-encoding"
    "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n"
    501 "transfer-encoding";
  check_err "conflicting content-length"
    "POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\n{}x"
    400 "conflicting content-length";
  (match
     Http.parse
       "POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\n{}"
   with
  | Ok r -> Alcotest.(check string) "repeated equal lengths accepted" "{}" r.Http.body
  | Error e -> Alcotest.failf "refused equal lengths: %s" e.Http.reason);
  match
    Http.parse ~max_body:3 "GET / HTTP/1.1\r\ncontent-length: 9\r\n\r\nwaytolong"
  with
  | Ok _ -> Alcotest.fail "accepted an oversized body"
  | Error e ->
    Alcotest.(check int) "body limit is 413" 413 e.Http.status;
    Alcotest.(check bool)
      "body limit reason" true
      (Helpers.contains e.Http.reason "exceeds")

(* ---- sessions ----------------------------------------------------------- *)

let ab_schema = ("r", [ "A"; "B" ])

(* Two constant rows forcing B to both 10 and 20 when A = 1: the lint
   gate flags them (E002), so sessions need [force]; a tuple with A = 1
   can then only be settled by nulling B — the quarantine trigger. *)
let conflicting_rules =
  "p1: [A] -> [B] {\n  (1 || 10)\n}\np2: [A] -> [B] {\n  (1 || 20)\n}\n"

let make_session ?(force = false) ~rules () =
  let schema_name, attributes = ab_schema in
  Session.create ~id:"s1" ~schema_name ~attributes ~rules ~engine:"l-inc"
    ~force ()

let ints l = Array.of_list (List.map Value.int l)

let test_session_gates () =
  (match make_session ~rules:conflicting_rules () with
  | Error (Dq_error.Lint_gated { errors; _ }) ->
    Alcotest.(check bool) "lint gate counts errors" true (errors > 0)
  | Ok _ -> Alcotest.fail "conflicting rules passed the lint gate"
  | Error e -> Alcotest.failf "wrong gate: %s" (Dq_error.to_string e));
  (match
     let schema_name, attributes = ab_schema in
     Session.create ~id:"s1" ~schema_name ~attributes
       ~rules:"p1: [A] -> [B]\n" ~engine:"batch" ()
   with
  | Error (Dq_error.Engine_unsupported { engine; reason }) ->
    Alcotest.(check string) "engine named" "batch" engine;
    Alcotest.(check bool)
      "reason mentions ingest" true
      (Helpers.contains reason "ingest")
  | Ok _ -> Alcotest.fail "batch engine accepted for a session"
  | Error e -> Alcotest.failf "wrong error: %s" (Dq_error.to_string e));
  match
    let schema_name, attributes = ab_schema in
    Session.create ~id:"s1" ~schema_name ~attributes
      ~rules:"p1: [A] -> [B]\np2: [B] -> [A]\n" ~engine:"l-inc" ()
  with
  | Error (Dq_error.Analyze_gated { cycles; _ }) ->
    Alcotest.(check bool) "cycle certified" true (cycles > 0)
  | Ok _ -> Alcotest.fail "cyclic Σ passed the termination gate"
  | Error e -> Alcotest.failf "wrong gate: %s" (Dq_error.to_string e)

let test_quarantine_lifecycle () =
  let s = unwrap (make_session ~force:true ~rules:conflicting_rules ()) in
  Session.with_lock s @@ fun () ->
  let outcomes, _stats, _report =
    unwrap
      (Session.ingest s [ (ints [ 1; 10 ], None); (ints [ 2; 20 ], None) ])
  in
  (match outcomes with
  | [ Session.Quarantined (1, [ 1 ]); Session.Clean 2 ] -> ()
  | _ -> Alcotest.fail "expected tid 1 quarantined on B, tid 2 clean");
  (* The quarantined tuple left the relation, which stays Σ-consistent,
     and is held in submitted form. *)
  Alcotest.(check int) "relation holds the clean tuple only" 1
    (Relation.cardinality s.Session.relation);
  Alcotest.(check int) "quarantine count" 1 (List.length s.Session.quarantine);
  let q =
    match Session.find_quarantined s 1 with
    | Some q -> q
    | None -> Alcotest.fail "tid 1 not in quarantine"
  in
  Alcotest.(check Helpers.value)
    "original value preserved" (Value.int 10)
    (Tuple.get q.Session.tuple 1);
  (* A resolution that still conflicts is refused and the entry stays. *)
  (match Session.resolve s 1 (Session.Replace (ints [ 1; 30 ], None)) with
  | Error (Dq_error.Invalid_input msg) ->
    Alcotest.(check bool)
      "refusal says unrepairable" true
      (Helpers.contains msg "unrepairable")
  | Ok _ -> Alcotest.fail "conflicting resolution accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Dq_error.to_string e));
  Alcotest.(check int) "entry stayed" 1 (List.length s.Session.quarantine);
  (* A clean resolution re-ingests under the same tid. *)
  (match unwrap (Session.resolve s 1 (Session.Replace (ints [ 2; 20 ], None))) with
  | Session.Clean 1 -> ()
  | _ -> Alcotest.fail "resolution not clean");
  Alcotest.(check int) "quarantine drained" 0 (List.length s.Session.quarantine);
  Alcotest.(check int) "relation restored" 2
    (Relation.cardinality s.Session.relation);
  Alcotest.(check int) "resolved counter" 1 s.Session.resolved;
  (* Unknown tids are typed errors, and discard drops for good. *)
  (match Session.resolve s 99 Session.Discard with
  | Error (Dq_error.Invalid_input _) -> ()
  | _ -> Alcotest.fail "unknown tid accepted");
  let outcomes, _, _ = unwrap (Session.ingest s [ (ints [ 1; 10 ], None) ]) in
  (match outcomes with
  | [ Session.Quarantined (3, _) ] -> ()
  | _ -> Alcotest.fail "expected tid 3 quarantined");
  (match unwrap (Session.resolve s 3 Session.Discard) with
  | Session.Clean 3 -> ()
  | _ -> Alcotest.fail "discard outcome");
  Alcotest.(check int) "discard drains quarantine" 0
    (List.length s.Session.quarantine)

(* ---- store round-trip ---------------------------------------------------- *)

let with_tmp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve_store_%d" (Unix.getpid ()))
  in
  let rec cleanup path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> cleanup (Filename.concat path f)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  cleanup dir;
  Fun.protect ~finally:(fun () -> cleanup dir) (fun () -> f dir)

let test_store_round_trip () =
  with_tmp_dir @@ fun dir ->
  let s = unwrap (make_session ~force:true ~rules:conflicting_rules ()) in
  Session.with_lock s (fun () ->
      (* Exercise every value constructor, a non-default weight vector
         and a quarantined entry: the exact cases a lossy encoding would
         corrupt.  0.1 has no finite binary expansion, so a decimal
         round-trip would shift it. *)
      let rows =
        [
          (ints [ 1; 10 ], None);
          ([| Value.float 0.1; Value.string "x,y" |], Some [| 0.25; 1.0 |]);
          ([| Value.Null; Value.int 3 |], None);
        ]
      in
      let _ = unwrap (Session.ingest s rows) in
      let (_ : int) = Store.save ~dir s in
      ());
  let loaded =
    match Store.load_dir dir with
    | Ok [ ("s1.json", loaded) ] -> loaded
    | Ok files ->
      Alcotest.failf "expected one session file, got %d" (List.length files)
    | Error msg -> Alcotest.failf "load_dir: %s" msg
  in
  let csv (x : Session.t) =
    Session.with_lock x (fun () -> Csv.save_string x.Session.relation)
  in
  Alcotest.(check string) "relation CSV byte-identical" (csv s) (csv loaded);
  Alcotest.(check int) "next_tid" s.Session.next_tid loaded.Session.next_tid;
  Alcotest.(check int) "batches" s.Session.batches loaded.Session.batches;
  Alcotest.(check int)
    "quarantine entries"
    (List.length s.Session.quarantine)
    (List.length loaded.Session.quarantine);
  (* Weights survive exactly: further ingest ordering (w-inc) and the
     cost model depend on them. *)
  let t = Relation.find_exn loaded.Session.relation 2 in
  Alcotest.(check (float 0.)) "weight exact" 0.25 (Tuple.weight t 0);
  Alcotest.(check Helpers.value)
    "float value exact" (Value.float 0.1)
    (Tuple.get t 0)

(* A session file written by the first store format (version 1, one
   snapshot, no journal).  It holds every value constructor — a float
   with no finite binary expansion, a string with a comma, a quote and a
   newline, an int, a null — a weight vector, a quarantined tuple and a
   discarded one. *)
let test_store_loads_v1 () =
  let s =
    match Store.load "../data/serve_fixtures/session_v1.json" with
    | Ok s -> s
    | Error msg -> Alcotest.failf "load: %s" msg
  in
  Alcotest.(check string)
    "relation CSV"
    "A,B\n0.1,\"x,y\"\n,3\n2,20\n0.1,20\n-7,\"\"\"q\"\"\n\"\n3,2.5\n"
    (Csv.save_string s.Session.relation);
  Alcotest.(check (list int))
    "counters: next_tid batches repaired quarantined_total resolved"
    [ 9; 2; 1; 2; 1 ]
    [
      s.Session.next_tid;
      s.Session.batches;
      s.Session.repaired;
      s.Session.quarantined_total;
      s.Session.resolved;
    ];
  (match s.Session.quarantine with
  | [ { Session.tuple; attrs = [ 1 ]; batch = 1 } ] ->
    Alcotest.(check int) "quarantined tid" 1 (Tuple.tid tuple);
    Alcotest.(check Helpers.value)
      "quarantined value" (Value.int 10) (Tuple.get tuple 1)
  | _ -> Alcotest.fail "expected tid 1 quarantined on B in batch 1");
  let t = Relation.find_exn s.Session.relation 3 in
  Alcotest.(check (float 0.)) "weight exact" 0.25 (Tuple.weight t 0)

(* ---- snapshot + journal -------------------------------------------------- *)

(* Everything a reload must reproduce, as one string: the relation's CSV,
   each row with its tid, typed values and weights (the CSV renders
   [Int 1] and ["1"] alike and carries no weights), the quarantine, the
   counters and the mutation count. *)
let session_state (s : Session.t) =
  let typed = function
    | Value.Null -> "null"
    | Value.Int n -> Printf.sprintf "i%d" n
    | Value.Float f -> Printf.sprintf "f%h" f
    | Value.String x -> Printf.sprintf "s%S" x
  in
  let row t =
    Printf.sprintf "%d [%s] w[%s]" (Tuple.tid t)
      (String.concat " " (List.map typed (Array.to_list (Tuple.values t))))
      (String.concat " "
         (List.init (Tuple.arity t) (fun i -> Printf.sprintf "%h" (Tuple.weight t i))))
  in
  String.concat "\n"
    ([ Csv.save_string s.Session.relation ]
    @ List.map row (Relation.to_list s.Session.relation)
    @ List.map
        (fun (q : Session.quarantined) ->
          Printf.sprintf "quarantined %s attrs %s batch %d" (row q.Session.tuple)
            (String.concat "," (List.map string_of_int q.Session.attrs))
            q.Session.batch)
        s.Session.quarantine
    @ [
        Printf.sprintf
          "next_tid %d batches %d repaired %d quarantined_total %d resolved %d \
           seq %d"
          s.Session.next_tid s.Session.batches s.Session.repaired
          s.Session.quarantined_total s.Session.resolved s.Session.seq;
      ])

let reload ~dir id =
  match Store.load_id ~dir id with
  | Ok s -> s
  | Error msg -> Alcotest.failf "load_id: %s" msg

let check_reload ~dir msg (s : Session.t) =
  Alcotest.(check string) msg (session_state s)
    (session_state (reload ~dir s.Session.id))

let journal_file dir = Filename.concat dir "s1.journal"

let file_size file = (Unix.stat file).Unix.st_size

let slurp file = In_channel.with_open_bin file In_channel.input_all

let append_raw file text =
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 file in
  output_string oc text;
  close_out oc

let ingest_ok s rows =
  let _ = unwrap (Session.ingest s rows) in
  ()

(* A session with a snapshot and, after it, a journal of two records —
   still smaller than the snapshot, so the next save would append. *)
let journaled_session dir =
  let s = unwrap (make_session ~force:true ~rules:conflicting_rules ()) in
  ingest_ok s (List.init 8 (fun i -> (ints [ i + 2; 10 * i ], None)));
  let (_ : int) = Store.save ~dir s in
  ingest_ok s [ (ints [ 1; 10 ], None); (ints [ 12; 20 ], None) ];
  let (_ : int) = Store.save ~dir s in
  ingest_ok s [ ([| Value.float 0.1; Value.string "x,y" |], Some [| 0.25; 1. |]) ];
  let (_ : int) = Store.save ~dir s in
  Alcotest.(check bool) "journal smaller than the snapshot" true
    (file_size (journal_file dir) < file_size (Filename.concat dir "s1.json"));
  s

let test_journal_torn_tail () =
  with_tmp_dir @@ fun dir ->
  let s = journaled_session dir in
  (* a crash mid-append: part of a record, no newline *)
  append_raw (journal_file dir) {|{"seq":3,"rows":[{"tid":4,"values":[{"i":|};
  check_reload ~dir "torn last line ignored" s;
  (* The reloaded session never appends after the torn bytes: its next
     checkpoint is a snapshot, which removes the journal. *)
  let loaded = reload ~dir "s1" in
  ingest_ok loaded [ (ints [ 3; 30 ], None) ];
  let bytes = Store.save ~dir loaded in
  Alcotest.(check int) "snapshot written" (file_size (Filename.concat dir "s1.json")) bytes;
  Alcotest.(check bool) "journal removed" false (Sys.file_exists (journal_file dir));
  check_reload ~dir "reload after the snapshot" loaded

let test_journal_skips_covered_records () =
  with_tmp_dir @@ fun dir ->
  let s = journaled_session dir in
  (* A crash between a compaction's rename and the journal's removal:
     the snapshot covers every record the journal still holds. *)
  let stale = slurp (journal_file dir) in
  s.Session.checkpoint <- Session.Snapshot_due;
  let (_ : int) = Store.save ~dir s in
  Alcotest.(check bool) "compaction removed the journal" false
    (Sys.file_exists (journal_file dir));
  append_raw (journal_file dir) stale;
  check_reload ~dir "covered records skipped" s;
  (* appends after the stale records replay in order *)
  ingest_ok s [ (ints [ 3; 30 ], None) ];
  let (_ : int) = Store.save ~dir s in
  check_reload ~dir "newer record replayed" s

let with_fault_plan plan f =
  (match Dq_fault.Fault.parse_plan plan with
  | Ok p -> Dq_fault.Fault.arm p
  | Error msg -> Alcotest.failf "plan: %s" msg);
  Fun.protect ~finally:Dq_fault.Fault.disarm f

let test_journal_failed_append () =
  with_tmp_dir @@ fun dir ->
  let s = journaled_session dir in
  let journal_before = slurp (journal_file dir) in
  ingest_ok s [ (ints [ 3; 30 ], None) ];
  with_fault_plan "io.write@1" (fun () ->
      Alcotest.check_raises "append cut" (Dq_fault.Fault.Injected "io.write")
        (fun () -> ignore (Store.save ~dir s)));
  Alcotest.(check string) "journal untouched by the cut append" journal_before
    (slurp (journal_file dir));
  ingest_ok s [ (ints [ 4; 40 ], None) ];
  let bytes = Store.save ~dir s in
  Alcotest.(check int) "next save is a snapshot"
    (file_size (Filename.concat dir "s1.json"))
    bytes;
  Alcotest.(check bool) "journal removed" false (Sys.file_exists (journal_file dir));
  check_reload ~dir "reload equals the live session" s

let test_journal_stale_at_create () =
  with_tmp_dir @@ fun dir ->
  let (_ : Session.t) = journaled_session dir in
  (* A daemon started without --resume reuses the id s1.  The stale
     journal goes before the new snapshot is published, so even a cut
     snapshot write cannot leave it to be replayed onto the new one. *)
  let fresh = unwrap (make_session ~force:true ~rules:conflicting_rules ()) in
  with_fault_plan "io.write@1" (fun () ->
      Alcotest.check_raises "snapshot cut" (Dq_fault.Fault.Injected "io.write")
        (fun () -> ignore (Store.save ~dir fresh)));
  Alcotest.(check bool) "stale journal removed first" false
    (Sys.file_exists (journal_file dir));
  let (_ : int) = Store.save ~dir fresh in
  check_reload ~dir "reload is the new, empty session" fresh;
  Store.delete ~dir "s1";
  Alcotest.(check (list string)) "delete removes both files" []
    (Array.to_list (Sys.readdir dir))

(* Rolling back a committed batch restores everything a reload would
   compare, and the journal never learns of the batch: the next record
   holds only what was committed after the rollback. *)
let test_rollback_restores_session () =
  with_tmp_dir @@ fun dir ->
  let s = journaled_session dir in
  let before = session_state s in
  let mark = Session.mark s in
  ingest_ok s [ (ints [ 1; 10 ], None); (ints [ 3; 30 ], None) ];
  Session.rollback s mark;
  Alcotest.(check string) "rollback restores the session" before
    (session_state s);
  ingest_ok s [ (ints [ 4; 40 ], None) ];
  let (_ : int) = Store.save ~dir s in
  check_reload ~dir "the undone batch never reaches disk" s

(* A record covers every mutation committed since the last save: one in
   the daemon's normal path, several when a caller saves less often or a
   save failed before it wrote anything. *)
let test_journal_record_covers_several () =
  with_tmp_dir @@ fun dir ->
  let s = journaled_session dir in
  ingest_ok s [ (ints [ 1; 10 ], None) ];
  ingest_ok s [ (ints [ 3; 30 ], None) ];
  let tid = Tuple.tid (List.hd s.Session.quarantine).Session.tuple in
  let (_ : Session.outcome) = unwrap (Session.resolve s tid Session.Discard) in
  let (_ : int) = Store.save ~dir s in
  check_reload ~dir "one record for three mutations" s;
  ingest_ok s [ (ints [ 4; 40 ], None) ];
  let (_ : int) = Store.save ~dir s in
  check_reload ~dir "the next record follows it" s

(* Random ingest/resolve sequences, most followed by a checkpoint (the
   others leave their mutations to the next record): after every save, a
   reload from snapshot + journal equals the live session.  All three
   tuple orderings run, since the journal must keep the order the engine
   inserted rows in.  Each sequence is extended with saved clean ingests
   until the journal has been compacted at least once. *)
type journal_op =
  | Ingest of (Value.t array * float array option) list
  | Discard of int  (** the n-th quarantine entry, modulo its length *)
  | Replace of int * Value.t array

let journal_instance =
  let open QCheck.Gen in
  let a = oneofl Value.[ Int 1; Int 2; Int 3; Float 2.5; String "x"; Null ] in
  let b = oneofl Value.[ Int 10; Int 20; Int 30; String "y"; Null ] in
  let values = map2 (fun a b -> [| a; b |]) a b in
  let weights =
    frequency
      [ (3, return None); (1, map (fun w -> Some [| w; 1. |]) (oneofl [ 0.25; 0.5 ])) ]
  in
  let op =
    frequency
      [
        (5, map (fun rows -> Ingest rows) (list_size (0 -- 4) (pair values weights)));
        (2, map (fun k -> Discard k) (0 -- 5));
        (2, map2 (fun k v -> Replace (k, v)) (0 -- 5) values);
      ]
  in
  let print (engine, ops) =
    let vs v = String.concat ";" (List.map Value.to_string (Array.to_list v)) in
    engine ^ ": "
    ^ String.concat " | "
        (List.map
           (fun (op, save) ->
             (match op with
             | Ingest rows ->
               "ingest " ^ String.concat " " (List.map (fun (v, _) -> "[" ^ vs v ^ "]") rows)
             | Discard k -> Printf.sprintf "discard #%d" k
             | Replace (k, v) -> Printf.sprintf "replace #%d [%s]" k (vs v))
             ^ if save then "" else " (no save)")
           ops)
  in
  let save = frequency [ (3, return true); (1, return false) ] in
  QCheck.make ~print
    (pair (oneofl [ "l-inc"; "inc"; "w-inc" ]) (list_size (5 -- 25) (pair op save)))

let prop_journal_reload =
  QCheck.Test.make ~count:100
    ~name:"snapshot + journal reload equals the live session after every save"
    journal_instance (fun (engine, ops) ->
      with_tmp_dir @@ fun dir ->
      let schema_name, attributes = ab_schema in
      let s =
        unwrap
          (Session.create ~id:"s1" ~schema_name ~attributes
             ~rules:conflicting_rules ~engine ~force:true ())
      in
      let compactions = ref 0 in
      let checkpoint () =
        let had_journal = Sys.file_exists (journal_file dir) in
        let (_ : int) = Store.save ~dir s in
        if had_journal && not (Sys.file_exists (journal_file dir)) then
          incr compactions;
        match Store.load_id ~dir "s1" with
        | Ok loaded ->
          if session_state loaded <> session_state s then
            QCheck.Test.fail_reportf "reload differs:\n%s\n---\n%s"
              (session_state s) (session_state loaded)
        | Error msg -> QCheck.Test.fail_reportf "load_id: %s" msg
      in
      let step (op, save) =
        (match op with
        | Ingest rows -> ingest_ok s rows
        | Discard k | Replace (k, _) -> (
          match s.Session.quarantine with
          | [] -> ()
          | q ->
            let tid = Tuple.tid (List.nth q (k mod List.length q)).Session.tuple in
            let resolution =
              match op with
              | Replace (_, v) -> Session.Replace (v, None)
              | _ -> Session.Discard
            in
            match Session.resolve s tid resolution with
            | Ok _ | Error (Dq_error.Invalid_input _) -> ()
            | Error e -> QCheck.Test.fail_reportf "resolve: %s" (Dq_error.to_string e)));
        if save then checkpoint ()
      in
      Session.with_lock s @@ fun () ->
      let (_ : int) = Store.save ~dir s in
      List.iter step ops;
      let extra = ref 0 in
      while !compactions = 0 && !extra < 100 do
        step (Ingest [ (ints [ 2; 20 ], None) ], true);
        incr extra
      done;
      !compactions > 0)

(* ---- batch-split determinism (the ingest-queue property) ----------------- *)

(* Acyclic FD rulesets over A..D rendered back to source text, so the
   session path (which parses rules) can consume them. *)
let fd_rules_gen =
  QCheck.Gen.(
    let attrs = [ "A"; "B"; "C"; "D" ] in
    let fd_gen i =
      let* lhs_size = 1 -- 2 in
      let* perm = shuffle_l attrs in
      let lhs = List.filteri (fun j _ -> j < lhs_size) perm in
      let rhs = [ List.nth perm lhs_size ] in
      return (Cfd.Tableau.fd ~name:(Printf.sprintf "p%d" i) ~lhs ~rhs)
    in
    let* n = 1 -- 3 in
    let* tabs = flatten_l (List.init n fd_gen) in
    return (Cfd_parser.to_string tabs))

let rows_gen =
  QCheck.Gen.(list_size (1 -- 16) Helpers.Gen.tuple_gen)

(* Random batch split: a list of cut points partitioning the rows. *)
let split_gen rows =
  QCheck.Gen.(
    let n = List.length rows in
    let* cuts = list_size (0 -- 3) (1 -- max 1 (n - 1)) in
    let cuts = List.sort_uniq compare (List.filter (fun c -> c < n) cuts) in
    let rec take k = function
      | [] -> ([], [])
      | x :: rest when k > 0 ->
        let a, b = take (k - 1) rest in
        (x :: a, b)
      | rest -> ([], rest)
    in
    let rec split off rows = function
      | [] -> [ rows ]
      | c :: cs ->
        let batch, rest = take (c - off) rows in
        batch :: split c rest cs
    in
    return (split 0 rows cuts))

let print_instance (rules, rows, batches) =
  let row values =
    "["
    ^ String.concat ";"
        (List.map Value.to_string (Array.to_list values))
    ^ "]"
  in
  Printf.sprintf "rules:\n%s\nrows: %s\nbatches: %s" rules
    (String.concat " " (List.map row rows))
    (String.concat " | "
       (List.map (fun b -> String.concat " " (List.map row b)) batches))

let serve_instance =
  QCheck.make ~print:print_instance
    QCheck.Gen.(
      let* rules = fd_rules_gen in
      let* rows = rows_gen in
      let* batches = split_gen rows in
      return (rules, rows, batches))

let no_quarantine outcomes =
  List.for_all (function Session.Quarantined _ -> false | _ -> true) outcomes

(* The contract behind serve's ingest queue: because sessions default to
   the linear (l-inc) ordering, draining N batches one by one leaves the
   same relation as one repair_inserts call over the concatenation —
   batch boundaries are invisible. *)
let prop_batches_equal_one_shot =
  QCheck.Test.make ~name:"N ingest batches equal one-shot ingest" ~count:60
    serve_instance
    (fun (rules, rows, batches) ->
      let run split =
        let s =
          match
            Session.create ~id:"s1" ~schema_name:"r"
              ~attributes:Helpers.Gen.attrs ~rules ~engine:"l-inc" ~force:true
              ()
          with
          | Ok s -> s
          | Error e ->
            QCheck.Test.fail_reportf "session create: %s" (Dq_error.to_string e)
        in
        Session.with_lock s @@ fun () ->
        List.iter
          (fun batch ->
            if batch <> [] then begin
              match
                Session.ingest s (List.map (fun values -> (values, None)) batch)
              with
              | Ok (outcomes, _, _) -> QCheck.assume (no_quarantine outcomes)
              | Error e ->
                QCheck.Test.fail_reportf "ingest: %s" (Dq_error.to_string e)
            end)
          split;
        Csv.save_string s.Session.relation
      in
      String.equal (run batches) (run [ rows ]))

(* ---- the kept environment ------------------------------------------------ *)

(* The soak's ruleset: two FDs, plus A = 1 forced to both B = 10 and
   B = 20, so a tuple with A = 1 can only be settled by nulling B. *)
let soak_rules =
  "p1: [A] -> [B]\np2: [C] -> [D]\nq1: [A] -> [B] {\n  (1 || 10)\n}\n\
   q2: [A] -> [B] {\n  (1 || 20)\n}\n"

(* A quarantined tuple leaves the relation and the kept environment's
   LHS-indices with it.  Left indexed, its C = 3 -> D = 7 entry would
   repair the next batch's D from 8 to 7. *)
let test_quarantine_leaves_environment () =
  let s =
    unwrap
      (Session.create ~id:"s1" ~schema_name:"soak"
         ~attributes:[ "A"; "B"; "C"; "D" ] ~rules:soak_rules ~engine:"l-inc"
         ~force:true ())
  in
  Session.with_lock s @@ fun () ->
  (match unwrap (Session.ingest s [ (ints [ 1; 10; 3; 7 ], None) ]) with
  | [ Session.Quarantined (1, [ 1 ]) ], _, _ -> ()
  | _ -> Alcotest.fail "expected tid 1 quarantined on B");
  (match unwrap (Session.ingest s [ (ints [ 2; 20; 3; 8 ], None) ]) with
  | [ Session.Clean 2 ], _, _ -> ()
  | _ -> Alcotest.fail "expected tid 2 clean");
  Alcotest.(check string)
    "relation" "A,B,C,D\n2,20,3,8\n"
    (Csv.save_string s.Session.relation)

(* The reference a kept environment must match: repair each batch with
   [repair_inserts] on a copy of the relation, then delete the
   quarantined tids. *)
type reference = {
  mutable rel : Relation.t;
  mutable queue : Session.quarantined list;
  mutable next_tid : int;
  mutable batches : int;
}

type env_op =
  | Batch of Value.t array list * int option * int option
      (** rows; a deadline of so many passes; a [resolve.tuple] fault at
          that hit *)
  | Replace_first of Value.t array
      (** resolve the oldest quarantine entry with these values *)

let outcome_string = function
  | Session.Clean tid -> Printf.sprintf "clean %d" tid
  | Session.Repaired (tid, n) -> Printf.sprintf "repaired %d/%d" tid n
  | Session.Quarantined (tid, attrs) ->
    Printf.sprintf "quarantined %d [%s]" tid
      (String.concat "," (List.map string_of_int attrs))

(* Run [f] with a [resolve.tuple] fault armed at hit [fault], if any; an
   injected fault is a result. *)
let under_fault fault f =
  (match fault with
  | None -> ()
  | Some n ->
    Dq_fault.Fault.arm
      [ { Dq_fault.Fault.site = "resolve.tuple"; hits = n; action = Raise } ]);
  Fun.protect ~finally:Dq_fault.Fault.disarm (fun () ->
      try f () with Dq_fault.Fault.Injected site -> Error ("injected " ^ site))

(* How the reference settles one repaired tuple: quarantined on the
   positions the repair nulled, else clean or repaired. *)
let settle ~submitted ~repaired =
  let tid = Tuple.tid submitted in
  match
    List.filter
      (fun p ->
        Value.is_null (Tuple.get repaired p)
        && not (Value.is_null (Tuple.get submitted p)))
      (List.init (Tuple.arity submitted) Fun.id)
  with
  | _ :: _ as nulled -> Session.Quarantined (tid, nulled)
  | [] -> (
    match List.length (Tuple.diff_positions submitted repaired) with
    | 0 -> Session.Clean tid
    | n -> Session.Repaired (tid, n))

let reference_batch r ~ordering ~sigma ?deadline rows =
  let delta =
    List.mapi (fun i values -> Tuple.create ~tid:(r.next_tid + i) values) rows
  in
  match
    Dq_core.Inc_repair.repair_inserts ~ordering ?deadline r.rel delta sigma
  with
  | Error e -> Error (Dq_error.to_string e)
  | Ok (_, report) when report.Dq_obs.Report.degraded <> None ->
    Error (Dq_error.to_string Dq_error.Deadline_exceeded)
  | Ok ((rel, _), _) ->
    let batch = r.batches + 1 in
    let outcomes =
      List.map
        (fun submitted ->
          let outcome =
            settle ~submitted ~repaired:(Relation.find_exn rel (Tuple.tid submitted))
          in
          (match outcome with
          | Session.Quarantined (tid, attrs) ->
            ignore (Relation.delete rel tid);
            r.queue <- r.queue @ [ { Session.tuple = submitted; attrs; batch } ]
          | Session.Clean _ | Session.Repaired _ -> ());
          outcome_string outcome)
        delta
    in
    r.rel <- rel;
    r.next_tid <- r.next_tid + List.length rows;
    r.batches <- batch;
    Ok outcomes

let reference_replace r ~ordering ~sigma (q : Session.quarantined) values =
  let tid = Tuple.tid q.Session.tuple in
  let submitted = Tuple.create ~tid values in
  match Dq_core.Inc_repair.repair_inserts ~ordering r.rel [ submitted ] sigma with
  | Error e -> Error (Dq_error.to_string e)
  | Ok ((rel, _), _) -> (
    match settle ~submitted ~repaired:(Relation.find_exn rel tid) with
    | Session.Quarantined _ -> Error "refused"
    | outcome ->
      r.rel <- rel;
      r.queue <- List.filter (fun x -> x != q) r.queue;
      Ok [ outcome_string outcome ])

let queue_string queue =
  String.concat "\n"
    (List.map
       (fun (q : Session.quarantined) ->
         Printf.sprintf "%d [%s] batch %d: %s" (Tuple.tid q.Session.tuple)
           (String.concat "," (List.map string_of_int q.Session.attrs))
           q.Session.batch
           (String.concat ";"
              (List.map Value.to_string (Array.to_list (Tuple.values q.Session.tuple)))))
       queue)

(* Half the rulesets force A = v1 to both B = v2 and B = v3, so rows
   quarantine. *)
let env_instance =
  let open QCheck.Gen in
  let conflict =
    "q1: [A] -> [B] {\n  (v1 || v2)\n}\nq2: [A] -> [B] {\n  (v1 || v3)\n}\n"
  in
  let rules =
    map2 (fun fds c -> if c then fds ^ conflict else fds) fd_rules_gen bool
  in
  let op =
    frequency
      [
        ( 4,
          map3
            (fun rows deadline fault -> Batch (rows, deadline, fault))
            (list_size (1 -- 5) Helpers.Gen.tuple_gen)
            (frequency [ (4, return None); (1, map Option.some (0 -- 4)) ])
            (frequency [ (4, return None); (1, map Option.some (1 -- 5)) ]) );
        (1, map (fun v -> Replace_first v) Helpers.Gen.tuple_gen);
      ]
  in
  let print (rules, engine, ops) =
    let row v = "[" ^ String.concat ";" (List.map Value.to_string (Array.to_list v)) ^ "]" in
    let opt name = function None -> "" | Some n -> Printf.sprintf " %s %d" name n in
    Printf.sprintf "%s\nrules:\n%s\n%s" engine rules
      (String.concat "\n"
         (List.map
            (function
              | Batch (rows, d, f) ->
                "batch " ^ String.concat " " (List.map row rows) ^ opt "deadline" d
                ^ opt "fault" f
              | Replace_first v -> "replace first " ^ row v)
            ops))
  in
  QCheck.make ~print
    (triple rules (oneofl [ "l-inc"; "inc"; "w-inc" ]) (list_size (1 -- 8) op))

let prop_kept_env_equals_reference =
  QCheck.Test.make ~count:150
    ~name:"kept environment: every batch equals repair_inserts on a copy"
    env_instance (fun (rules, engine, ops) ->
      let s =
        match
          Session.create ~id:"s1" ~schema_name:"r" ~attributes:Helpers.Gen.attrs
            ~rules ~engine ~force:true ()
        with
        | Ok s -> s
        | Error e -> QCheck.Test.fail_reportf "create: %s" (Dq_error.to_string e)
      in
      let ordering = s.Session.ordering and sigma = s.Session.sigma in
      let r =
        {
          rel = Relation.create s.Session.schema;
          queue = [];
          next_tid = 1;
          batches = 0;
        }
      in
      let deadline = Option.map Dq_fault.Deadline.after_passes in
      let step op =
        let want, got =
          match op with
          | Batch (rows, passes, fault) ->
            let want =
              under_fault fault (fun () ->
                  reference_batch r ~ordering ~sigma ?deadline:(deadline passes) rows)
            in
            let got =
              under_fault fault (fun () ->
                  match
                    Session.ingest ?deadline:(deadline passes) s
                      (List.map (fun v -> (v, None)) rows)
                  with
                  | Ok (outcomes, _, _) -> Ok (List.map outcome_string outcomes)
                  | Error e -> Error (Dq_error.to_string e))
            in
            (want, got)
          | Replace_first values -> (
            match r.queue with
            | [] -> (Ok [], Ok [])
            | q :: _ ->
              let want = reference_replace r ~ordering ~sigma q values in
              let got =
                match
                  Session.resolve s (Tuple.tid q.Session.tuple)
                    (Session.Replace (values, None))
                with
                | Ok outcome -> Ok [ outcome_string outcome ]
                | Error (Dq_error.Invalid_input _) -> Error "refused"
                | Error e -> Error (Dq_error.to_string e)
              in
              (want, got))
        in
        let show = function
          | Ok l -> String.concat ", " l
          | Error e -> "error: " ^ e
        in
        if want <> got then
          QCheck.Test.fail_reportf "outcomes: reference %s, session %s" (show want)
            (show got);
        let state rel queue next_tid batches =
          Printf.sprintf "%s%s\nnext_tid %d batches %d" (Csv.save_string rel)
            (queue_string queue) next_tid batches
        in
        let want = state r.rel r.queue r.next_tid r.batches in
        let got =
          state s.Session.relation s.Session.quarantine s.Session.next_tid
            s.Session.batches
        in
        if want <> got then
          QCheck.Test.fail_reportf "state:\nreference\n%s\nsession\n%s" want got
      in
      Session.with_lock s (fun () -> List.iter step ops);
      true)

(* ---- end-to-end over sockets --------------------------------------------- *)

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 8192 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  go ();
  Buffer.contents buf

let rec index_sub s off sub =
  let n = String.length sub in
  if off + n > String.length s then None
  else if String.sub s off n = sub then Some off
  else index_sub s (off + 1) sub

let decode_chunked body =
  let out = Buffer.create (String.length body) in
  let rec go off =
    match String.index_from_opt body off '\n' with
    | None -> ()
    | Some nl -> (
      match int_of_string_opt ("0x" ^ String.trim (String.sub body off (nl - off))) with
      | None | Some 0 -> ()
      | Some len ->
        Buffer.add_string out (String.sub body (nl + 1) len);
        go (nl + 1 + len + 2))
  in
  go 0;
  Buffer.contents out

(* A one-shot HTTP client against the in-process daemon: returns status,
   the raw response head and the (de-chunked) body. *)
let request_full ?(headers = []) port meth path body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Http.send fd
        (Printf.sprintf "%s %s HTTP/1.1\r\n%scontent-length: %d\r\n\r\n%s" meth
           path
           (String.concat ""
              (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers))
           (String.length body) body);
      let raw = read_all fd in
      let status =
        match String.split_on_char ' ' raw with
        | _ :: code :: _ -> int_of_string_opt code |> Option.value ~default:0
        | _ -> 0
      in
      let head, payload =
        match index_sub raw 0 "\r\n\r\n" with
        | Some i ->
          ( String.sub raw 0 i,
            String.sub raw (i + 4) (String.length raw - i - 4) )
        | None -> (raw, "")
      in
      let payload =
        if Helpers.contains (String.lowercase_ascii head) "transfer-encoding: chunked"
        then decode_chunked payload
        else payload
      in
      (status, head, payload))

let request port meth path body =
  let status, _head, payload = request_full port meth path body in
  (status, payload)

(* Case-insensitive response-header lookup in a raw head blob. *)
let header_of head name =
  String.split_on_char '\n' head
  |> List.find_map (fun line ->
         let line = String.trim line in
         match String.index_opt line ':' with
         | Some i when String.lowercase_ascii (String.sub line 0 i) = name ->
           Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)

let json_of body =
  match Json.parse body with
  | Ok j -> j
  | Error msg -> Alcotest.failf "response not JSON (%s): %s" msg body

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing %S in %s" name (Json.to_string ~minify:true j)

let test_e2e_restart () =
  with_tmp_dir @@ fun dir ->
  let start () =
    unwrap
      (Serve.start
         {
           Serve.port = 0;
           state_dir = Some dir;
           resume = true;
           telemetry = Serve.telemetry_off;
           limits = Serve.default_limits;
         })
  in
  let d1 = start () in
  let p1 = Serve.port d1 in
  (* Create a session and drive two batches through it. *)
  let status, body =
    request p1 "POST" "/v1/sessions"
      {|{"schema":{"name":"orders","attributes":["AC","PN","CT"]},
         "rules":"phi1: [AC] -> [CT] {\n  (212 || NYC)\n  (610 || PHI)\n}\n"}|}
  in
  Alcotest.(check int) "create is 201" 201 status;
  (match member "v" (json_of body) with
  | Json.Int 2 -> ()
  | _ -> Alcotest.fail "envelope not v2");
  let status, body =
    request p1 "POST" "/v1/sessions/s1/tuples"
      {|{"tuples":[[212,"a","NYC"],[212,"b","LA"]]}|}
  in
  Alcotest.(check int) "batch 1 is 200" 200 status;
  (match member "ok" (json_of body) with
  | Json.Bool true -> ()
  | _ -> Alcotest.fail "batch 1 envelope not ok");
  let status, _ =
    request p1 "POST" "/v1/sessions/s1/tuples" {|{"tuples":[[610,"c","PHI"]]}|}
  in
  Alcotest.(check int) "batch 2 is 200" 200 status;
  let status, before = request p1 "GET" "/v1/sessions/s1/relation" "" in
  Alcotest.(check int) "relation is 200" 200 status;
  Alcotest.(check bool)
    "violating tuple was repaired" true
    (Helpers.contains before "212,b,NYC");
  (* 404 and 400 map through the error envelope. *)
  let status, _ = request p1 "GET" "/v1/sessions/nope" "" in
  Alcotest.(check int) "unknown session is 404" 404 status;
  let status, _ = request p1 "POST" "/v1/sessions/s1/tuples" "{not json" in
  Alcotest.(check int) "bad body is 400" 400 status;
  Serve.stop d1;
  (* Restart over the same state directory: the session and its relation
     come back byte-identical (the checkpoint ran before each 200). *)
  let d2 = start () in
  Fun.protect
    ~finally:(fun () -> Serve.stop d2)
    (fun () ->
      let p2 = Serve.port d2 in
      let status, after = request p2 "GET" "/v1/sessions/s1/relation" "" in
      Alcotest.(check int) "relation after restart is 200" 200 status;
      Alcotest.(check string) "relation byte-identical" before after;
      let _, body = request p2 "GET" "/v1/sessions/s1" "" in
      match member "batches" (member "report" (json_of body)) with
      | Json.Int 2 -> ()
      | j ->
        Alcotest.failf "batches counter lost: %s" (Json.to_string ~minify:true j))

(* ---- serving telemetry ---------------------------------------------------- *)

let start_daemon ?(limits = Serve.default_limits) ?state_dir ?(resume = false)
    telemetry =
  unwrap
    (Serve.start { Serve.port = 0; state_dir; resume; telemetry; limits })

let with_daemon ?limits ?state_dir ?resume telemetry f =
  let d = start_daemon ?limits ?state_dir ?resume telemetry in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop d;
      Dq_obs.Metrics.set_enabled false)
    (fun () -> f (Serve.port d))

let metrics_on = { Serve.metrics = true; slow_request_s = None }

let test_request_ids () =
  with_daemon metrics_on @@ fun p ->
  (* A client-supplied x-request-id is echoed in the response header and
     the envelope. *)
  let _, head, body =
    request_full ~headers:[ ("x-request-id", "abc-123") ] p "GET" "/v1/health"
      ""
  in
  Alcotest.(check (option string))
    "header echoed" (Some "abc-123")
    (header_of head "x-request-id");
  (match member "id" (json_of body) with
  | Json.String "abc-123" -> ()
  | j -> Alcotest.failf "envelope id not echoed: %s" (Json.to_string ~minify:true j));
  (* Unsafe bytes are dropped before the id goes anywhere. *)
  let _, head, _ =
    request_full
      ~headers:[ ("x-request-id", "a b\"c{}!") ]
      p "GET" "/v1/health" ""
  in
  Alcotest.(check (option string))
    "echoed id sanitized" (Some "abc")
    (header_of head "x-request-id");
  (* Without a client id, the daemon generates one; header and envelope
     agree. *)
  let _, head, body = request_full p "GET" "/v1/health" "" in
  let generated =
    match header_of head "x-request-id" with
    | Some h -> h
    | None -> Alcotest.fail "no generated request id header"
  in
  match member "id" (json_of body) with
  | Json.String id ->
    Alcotest.(check string) "envelope id equals header" generated id
  | _ -> Alcotest.fail "no envelope id on a telemetry-on daemon"

let test_zero_overhead_no_id () =
  with_daemon Serve.telemetry_off @@ fun p ->
  let _, head, body = request_full p "GET" "/v1/sessions" "" in
  Alcotest.(check (option string))
    "no request-id header" None
    (header_of head "x-request-id");
  (match Json.member "id" (json_of body) with
  | None -> ()
  | Some _ -> Alcotest.fail "telemetry-off envelope carries an id");
  (* The metrics endpoint is not routed when metrics are off: it falls
     through to the 404 unknown-endpoint error. *)
  let status, body = request p "GET" "/v1/metrics" "" in
  Alcotest.(check int) "metrics endpoint unrouted when off" 404 status;
  Alcotest.(check bool)
    "unknown-endpoint error" true
    (Helpers.contains body "no such endpoint")

let test_health_fields () =
  with_daemon Serve.telemetry_off @@ fun p ->
  let status, body = request p "GET" "/v1/health" "" in
  Alcotest.(check int) "health is 200" 200 status;
  let report = member "report" (json_of body) in
  (match member "version" report with
  | Json.String v -> Alcotest.(check string) "version" Serve.version v
  | _ -> Alcotest.fail "version missing");
  (match member "uptime_s" report with
  | Json.Int u -> Alcotest.(check bool) "uptime non-negative" true (u >= 0)
  | _ -> Alcotest.fail "uptime_s missing");
  (match member "sessions" report with
  | Json.Int 0 -> ()
  | _ -> Alcotest.fail "sessions should be 0");
  match member "state" report with
  | Json.Obj fields ->
    Alcotest.(check bool)
      "in-memory daemon is not persistent" true
      (List.assoc_opt "persistent" fields = Some (Json.Bool false)
      && List.assoc_opt "dir" fields = Some Json.Null)
  | _ -> Alcotest.fail "state missing"

let test_metrics_endpoint () =
  with_daemon metrics_on @@ fun p ->
  let status, _ = request p "GET" "/v1/health" "" in
  Alcotest.(check int) "health is 200" 200 status;
  let status, head, text = request_full p "GET" "/v1/metrics" "" in
  Alcotest.(check int) "metrics is 200" 200 status;
  Alcotest.(check (option string))
    "prometheus content type"
    (Some "text/plain; version=0.0.4")
    (header_of head "content-type");
  (* Not an envelope: raw exposition text. *)
  Alcotest.(check bool) "not JSON" true (Result.is_error (Json.parse text));
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "exposition contains %S" needle)
        true
        (Helpers.contains text needle))
    [
      "# TYPE cfdclean_serve_requests_total counter";
      "cfdclean_serve_requests_total{route=\"GET /v1/health\",status=\"200\"} ";
      "# TYPE cfdclean_serve_request_seconds histogram";
      "cfdclean_serve_request_seconds_bucket{le=\"+Inf\",route=\"GET /v1/health\"} ";
      "cfdclean_serve_sessions_live 0";
      "cfdclean_serve_quarantine_depth 0";
      "cfdclean_serve_uptime_seconds ";
      "cfdclean_gc_heap_words ";
      "cfdclean_gc_major_words ";
      "# TYPE cfdclean_serve_ingest_batch_size histogram";
    ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_access_log_schema () =
  with_tmp_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let log_file = Filename.concat dir "serve.log" in
  let sink =
    match Dq_obs.Log.file_sink log_file with
    | Ok s -> s
    | Error msg -> Alcotest.failf "file sink: %s" msg
  in
  Dq_obs.Log.set_sink (Some sink);
  Fun.protect ~finally:(fun () -> Dq_obs.Log.set_sink None) @@ fun () ->
  let envelope_id =
    with_daemon Serve.telemetry_off @@ fun p ->
    let _, _, body = request_full p "GET" "/v1/health" "" in
    (* A log sink alone activates request ids: the access-log line and
       the envelope must correlate. *)
    match member "id" (json_of body) with
    | Json.String id -> id
    | _ -> Alcotest.fail "log sink installed but envelope has no id"
  in
  let lines =
    String.split_on_char '\n' (read_file log_file)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun l ->
           match Json.parse l with
           | Ok j -> j
           | Error msg -> Alcotest.failf "log line not JSON (%s): %s" msg l)
  in
  (* Every line carries the fixed preamble. *)
  List.iter
    (fun j ->
      List.iter
        (fun f ->
          if Json.member f j = None then
            Alcotest.failf "log line missing %S: %s" f
              (Json.to_string ~minify:true j))
        [ "ts"; "uptime_s"; "level"; "event" ])
    lines;
  (* Exactly one access line, with the request's shape and its id. *)
  match
    List.filter
      (fun j -> Json.member "event" j = Some (Json.String "http.access"))
      lines
  with
  | [ line ] ->
    Alcotest.(check bool)
      "level info" true
      (Json.member "level" line = Some (Json.String "info"));
    Alcotest.(check bool)
      "method" true
      (Json.member "method" line = Some (Json.String "GET"));
    Alcotest.(check bool)
      "route template" true
      (Json.member "route" line = Some (Json.String "GET /v1/health"));
    Alcotest.(check bool)
      "status" true
      (Json.member "status" line = Some (Json.Int 200));
    (match Json.member "latency_s" line with
    | Some (Json.Float l) ->
      Alcotest.(check bool) "latency non-negative" true (l >= 0.)
    | _ -> Alcotest.fail "latency_s missing");
    (match Json.member "bytes" line with
    | Some (Json.Int b) -> Alcotest.(check bool) "bytes positive" true (b > 0)
    | _ -> Alcotest.fail "bytes missing");
    Alcotest.(check bool)
      "access-log id equals envelope id" true
      (Json.member "id" line = Some (Json.String envelope_id))
  | l -> Alcotest.failf "expected one http.access line, got %d" (List.length l)

(* ---- overload hardening --------------------------------------------------- *)

(* A persistent raw client: one socket, explicit sends, one-response-at-
   a-time reads (so keep-alive and pipelining are observable). *)
type client = { cfd : Unix.file_descr; mutable cbuf : string }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { cfd = fd; cbuf = "" }

let close_client c = try Unix.close c.cfd with Unix.Unix_error _ -> ()

let send_raw c bytes = Http.send c.cfd bytes

(* Read exactly one response off the connection; leftover bytes (the
   next pipelined response) stay in the client buffer. *)
let recv c =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf c.cbuf;
  c.cbuf <- "";
  let chunk = Bytes.create 4096 in
  let more what =
    match Unix.read c.cfd chunk 0 (Bytes.length chunk) with
    | 0 -> Alcotest.failf "peer closed %s" what
    | n -> Buffer.add_subbytes buf chunk 0 n
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
      Alcotest.failf "peer reset %s" what
  in
  let rec head_end () =
    match index_sub (Buffer.contents buf) 0 "\r\n\r\n" with
    | Some i -> i
    | None ->
      more "mid-head";
      head_end ()
  in
  let head_end = head_end () in
  let head = String.sub (Buffer.contents buf) 0 head_end in
  let clen =
    match header_of head "content-length" with
    | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n -> n
      | None -> Alcotest.failf "bad content-length in %S" head)
    | None -> 0
  in
  while Buffer.length buf < head_end + 4 + clen do
    more "mid-body"
  done;
  let all = Buffer.contents buf in
  let body = String.sub all (head_end + 4) clen in
  let past = head_end + 4 + clen in
  c.cbuf <- String.sub all past (String.length all - past);
  let status =
    match String.split_on_char ' ' head with
    | _ :: code :: _ -> int_of_string_opt code |> Option.value ~default:0
    | _ -> 0
  in
  (status, head, body)

(* True when the peer has closed: the next read returns EOF (and no
   buffered bytes remain). *)
let closed_by_peer c =
  c.cbuf = ""
  &&
  match Unix.read c.cfd (Bytes.create 1) 0 1 with
  | 0 -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true

let plain_rules = "p1: [A] -> [B]\n"

let create_session p =
  let status, _ =
    request p "POST" "/v1/sessions"
      (Printf.sprintf
         {|{"schema":{"name":"r","attributes":["A","B"]},"rules":%s}|}
         (Json.to_string ~minify:true (Json.String plain_rules)))
  in
  Alcotest.(check int) "session create is 201" 201 status

(* An announced body over the daemon's limit answers 413 before any body
   bytes arrive. *)
let test_oversized_body_413 () =
  with_daemon Serve.telemetry_off @@ fun p ->
  let c = connect p in
  Fun.protect
    ~finally:(fun () -> close_client c)
    (fun () ->
      send_raw c
        "POST /v1/sessions/s1/tuples HTTP/1.1\r\n\
         content-length: 999999999\r\n\r\n";
      let status, _, body = recv c in
      Alcotest.(check int) "announced oversized body is 413" 413 status;
      Alcotest.(check bool)
        "reason names the limit" true
        (Helpers.contains body "exceeds"))

(* keep-alive: two requests pipelined down one connection both answer;
   with keep-alive off the daemon closes after the first response. *)
let test_keep_alive_pipelining () =
  let ka = { Serve.default_limits with keep_alive = true } in
  with_daemon ~limits:ka Serve.telemetry_off (fun p ->
      let c = connect p in
      Fun.protect
        ~finally:(fun () -> close_client c)
        (fun () ->
          let health = "GET /v1/health HTTP/1.1\r\ncontent-length: 0\r\n\r\n" in
          send_raw c (health ^ health);
          let s1, h1, _ = recv c in
          let s2, _, _ = recv c in
          Alcotest.(check int) "first pipelined response" 200 s1;
          Alcotest.(check int) "second pipelined response" 200 s2;
          Alcotest.(check bool)
            "keep-alive announced" true
            (header_of h1 "connection" = Some "keep-alive");
          (* an explicit connection: close is honored *)
          send_raw c
            "GET /v1/health HTTP/1.1\r\nconnection: close\r\n\
             content-length: 0\r\n\r\n";
          let s3, h3, _ = recv c in
          Alcotest.(check int) "final response" 200 s3;
          Alcotest.(check bool)
            "close announced" true
            (header_of h3 "connection" = Some "close");
          Alcotest.(check bool) "daemon closed" true (closed_by_peer c)));
  (* default framing: close after one response *)
  with_daemon Serve.telemetry_off (fun p ->
      let c = connect p in
      Fun.protect
        ~finally:(fun () -> close_client c)
        (fun () ->
          send_raw c "GET /v1/health HTTP/1.1\r\ncontent-length: 0\r\n\r\n";
          let s, h, _ = recv c in
          Alcotest.(check int) "response" 200 s;
          Alcotest.(check bool)
            "close announced by default" true
            (header_of h "connection" = Some "close");
          Alcotest.(check bool) "daemon closed" true (closed_by_peer c)))

(* A full session lane sheds with 429 + retry-after while the first
   batch is still repairing; the shed request commits nothing. *)
let test_queue_full_429 () =
  let limits = { Serve.default_limits with queue_depth = 1 } in
  with_daemon ~limits Serve.telemetry_off @@ fun p ->
  Fun.protect ~finally:Dq_fault.Fault.disarm @@ fun () ->
  create_session p;
  (match Dq_fault.Fault.parse_plan "serve.ingest@1:delay 400" with
  | Ok plan -> Dq_fault.Fault.arm plan
  | Error msg -> Alcotest.failf "plan: %s" msg);
  let first = ref (0, "") in
  let t =
    Thread.create
      (fun () ->
        let status, body =
          request p "POST" "/v1/sessions/s1/tuples" {|{"tuples":[[1,10]]}|}
        in
        first := (status, body))
      ()
  in
  Thread.delay 0.1;
  let status, head, body =
    request_full p "POST" "/v1/sessions/s1/tuples" {|{"tuples":[[2,20]]}|}
  in
  Thread.join t;
  Alcotest.(check int) "held batch answers 200" 200 (fst !first);
  Alcotest.(check int) "second batch shed with 429" 429 status;
  Alcotest.(check (option string))
    "retry-after header" (Some "1")
    (header_of head "retry-after");
  Alcotest.(check bool)
    "shed error is typed queue-full" true
    (Helpers.contains body "queue is full");
  (* only the admitted batch committed *)
  let _, body = request p "GET" "/v1/sessions/s1" "" in
  match member "batches" (member "report" (json_of body)) with
  | Json.Int 1 -> ()
  | j -> Alcotest.failf "batches: %s" (Json.to_string ~minify:true j)

(* A DELETE sent while an ingest is held in the engine: the held batch
   commits before the DELETE answers, and once it has answered no request
   on the session commits and no file in the state directory names it,
   through the daemon's stop and a restart with resume.  The first batch
   outgrows the snapshot, so the held one would rewrite [s1.json]. *)
let test_delete_races_ingest () =
  with_tmp_dir @@ fun dir ->
  let ingest p rows =
    fst
      (request p "POST" "/v1/sessions/s1/tuples"
         (Printf.sprintf {|{"tuples":[%s]}|} rows))
  in
  let files () =
    List.filter
      (fun f -> String.length f > 3 && String.sub f 0 3 = "s1.")
      (Array.to_list (Sys.readdir dir))
  in
  with_daemon ~state_dir:dir Serve.telemetry_off (fun p ->
      create_session p;
      with_fault_plan "serve.ingest@2:delay 1500" (fun () ->
          Alcotest.(check int) "first batch" 200
            (ingest p
               (String.concat ","
                  (List.init 200 (fun i -> Printf.sprintf "[%d,%d]" i i))));
          let held = ref 0 in
          let t = Thread.create (fun () -> held := ingest p "[1000,1000]") () in
          Thread.delay 0.4;
          let deleted, _ = request p "DELETE" "/v1/sessions/s1" "" in
          Thread.join t;
          Alcotest.(check int) "the delete answers 200" 200 deleted;
          Alcotest.(check int) "the held batch answers 200" 200 !held);
      Alcotest.(check (list string)) "no file names the session" [] (files ());
      Alcotest.(check int) "a later batch finds no session" 404
        (ingest p "[7,7]"));
  Alcotest.(check (list string)) "none after the daemon stops" [] (files ());
  with_daemon ~state_dir:dir ~resume:true Serve.telemetry_off (fun p ->
      Alcotest.(check int) "none after a restart" 404
        (fst (request p "GET" "/v1/sessions/s1" "")))

(* Drain: a keep-alive connection that asks again mid-drain gets 503 +
   connection: close, and stop returns once the connection is gone. *)
let test_drain_refuses_and_closes () =
  let limits =
    { Serve.default_limits with keep_alive = true; drain_timeout_s = 5. }
  in
  let d = start_daemon ~limits Serve.telemetry_off in
  let p = Serve.port d in
  let c = connect p in
  Fun.protect
    ~finally:(fun () ->
      close_client c;
      Serve.stop d)
    (fun () ->
      let health = "GET /v1/health HTTP/1.1\r\ncontent-length: 0\r\n\r\n" in
      send_raw c health;
      let s, _, _ = recv c in
      Alcotest.(check int) "pre-drain request" 200 s;
      let stopper = Thread.create Serve.stop d in
      (* stop waits for this connection; requests sent mid-drain are
         refused and the refusal closes the connection *)
      let rec await_drain tries =
        if tries = 0 then Alcotest.fail "drain never refused a request"
        else begin
          send_raw c health;
          match recv c with
          | 200, _, _ ->
            Thread.delay 0.05;
            await_drain (tries - 1)
          | 503, head, body ->
            Alcotest.(check bool)
              "drain refusal is typed" true
              (Helpers.contains body "draining");
            Alcotest.(check bool)
              "drain refusal closes" true
              (header_of head "connection" = Some "close");
            Alcotest.(check bool) "socket closed" true (closed_by_peer c)
          | s, _, _ -> Alcotest.failf "unexpected mid-drain status %d" s
        end
      in
      await_drain 100;
      Thread.join stopper)

(* The circuit breaker: consecutive engine faults quarantine the
   session (503 engine-failed, state visible) until an operator resume
   closes it again. *)
let test_breaker_quarantine_and_resume () =
  let limits = { Serve.default_limits with breaker_threshold = 2 } in
  with_daemon ~limits Serve.telemetry_off @@ fun p ->
  Fun.protect ~finally:Dq_fault.Fault.disarm @@ fun () ->
  create_session p;
  let arm () =
    match Dq_fault.Fault.parse_plan "serve.ingest@1" with
    | Ok plan -> Dq_fault.Fault.arm plan
    | Error msg -> Alcotest.failf "plan: %s" msg
  in
  let ingest () = request p "POST" "/v1/sessions/s1/tuples" {|{"tuples":[[1,10]]}|} in
  arm ();
  let status, _ = ingest () in
  Alcotest.(check int) "first fault is 500" 500 status;
  let _, body = request p "GET" "/v1/sessions/s1" "" in
  (match member "state" (member "report" (json_of body)) with
  | Json.String "active" -> ()
  | j -> Alcotest.failf "one fault must not trip: %s" (Json.to_string ~minify:true j));
  arm ();
  let status, _ = ingest () in
  Alcotest.(check int) "second fault is 500" 500 status;
  (* breaker open: refused without touching the engine *)
  let status, body = ingest () in
  Alcotest.(check int) "quarantined session answers 503" 503 status;
  Alcotest.(check bool)
    "error names the resume endpoint" true
    (Helpers.contains body "resume");
  let _, body = request p "GET" "/v1/sessions/s1" "" in
  let report = member "report" (json_of body) in
  (match member "state" report with
  | Json.String "engine_failed" -> ()
  | j -> Alcotest.failf "state: %s" (Json.to_string ~minify:true j));
  (match member "engine_faults" report with
  | Json.Int 2 -> ()
  | j -> Alcotest.failf "engine_faults: %s" (Json.to_string ~minify:true j));
  (* operator resume closes the breaker *)
  let status, body = request p "POST" "/v1/sessions/s1/resume" "" in
  Alcotest.(check int) "resume is 200" 200 status;
  (match member "state" (member "report" (json_of body)) with
  | Json.String "active" -> ()
  | j -> Alcotest.failf "post-resume state: %s" (Json.to_string ~minify:true j));
  let status, _ = ingest () in
  Alcotest.(check int) "ingest works after resume" 200 status

(* Idle eviction checkpoints the session out of memory; the next request
   naming it reloads transparently and serves identical bytes. *)
let test_evict_and_reload () =
  with_tmp_dir @@ fun dir ->
  let limits = { Serve.default_limits with evict_idle_s = 0.2 } in
  with_daemon ~limits ~state_dir:dir Serve.telemetry_off @@ fun p ->
  create_session p;
  let status, _ =
    request p "POST" "/v1/sessions/s1/tuples" {|{"tuples":[[1,10],[2,20]]}|}
  in
  Alcotest.(check int) "ingest" 200 status;
  let _, before = request p "GET" "/v1/sessions/s1/relation" "" in
  (* wait for the sweeper *)
  let rec await_evict tries =
    if tries = 0 then Alcotest.fail "session never evicted"
    else
      let _, body = request p "GET" "/v1/sessions" "" in
      if not (Helpers.contains body "evicted") then begin
        Thread.delay 0.05;
        await_evict (tries - 1)
      end
  in
  await_evict 100;
  (* transparent reload on the next touch *)
  let status, after = request p "GET" "/v1/sessions/s1/relation" "" in
  Alcotest.(check int) "reloaded relation is 200" 200 status;
  Alcotest.(check string) "relation byte-identical after reload" before after;
  let _, body = request p "GET" "/v1/sessions" "" in
  Alcotest.(check bool)
    "session live again" true
    (not (Helpers.contains body "evicted"))

(* A checkpoint that fails takes the committed mutation back: the error
   answer means nothing changed, and a retry commits exactly once.  The
   state on disk afterwards is the state the last 200 answered. *)
let test_failed_checkpoint_commits_nothing () =
  with_tmp_dir @@ fun dir ->
  let status p =
    let _, body = request p "GET" "/v1/sessions/s1" "" in
    let _, relation = request p "GET" "/v1/sessions/s1/relation" "" in
    (member "report" (json_of body), relation)
  in
  let same msg (r1, c1) (r2, c2) =
    Alcotest.(check string) msg
      (Json.to_string ~minify:true r1 ^ "\n" ^ c1)
      (Json.to_string ~minify:true r2 ^ "\n" ^ c2)
  in
  let ingest p rows =
    fst (request p "POST" "/v1/sessions/s1/tuples" (Printf.sprintf {|{"tuples":%s}|} rows))
  in
  let failing_write f =
    with_fault_plan "io.write@1" (fun () ->
        Alcotest.(check int) "a failed checkpoint answers 500" 500 (f ()))
  in
  let last =
    with_daemon ~state_dir:dir Serve.telemetry_off @@ fun p ->
    let created, _ =
      request p "POST" "/v1/sessions"
        (Printf.sprintf
           {|{"schema":{"name":"r","attributes":["A","B"]},"rules":%s,"force":true}|}
           (Json.to_string ~minify:true (Json.String conflicting_rules)))
    in
    Alcotest.(check int) "create" 201 created;
    Alcotest.(check int) "first batch" 200 (ingest p "[[2,20]]");
    (* an ingest *)
    let before = status p in
    failing_write (fun () -> ingest p "[[3,30],[4,40]]");
    same "the failed ingest left the session as it was" before (status p);
    Alcotest.(check int) "retry" 200 (ingest p "[[3,30],[4,40]]");
    let _, body = request p "GET" "/v1/sessions/s1" "" in
    (match member "tuples" (member "report" (json_of body)) with
    | Json.Int 3 -> ()
    | j -> Alcotest.failf "the retry committed once: %s" (Json.to_string ~minify:true j));
    (* a discard *)
    Alcotest.(check int) "quarantining batch" 200 (ingest p "[[1,10]]");
    let tid =
      let _, body = request p "GET" "/v1/sessions/s1/quarantine" "" in
      match member "entries" (member "report" (json_of body)) with
      | Json.List [ entry ] -> (
        match member "tid" entry with
        | Json.Int tid -> tid
        | _ -> Alcotest.fail "entry without a tid")
      | _ -> Alcotest.fail "expected one quarantine entry"
    in
    let discard () =
      fst
        (request p "POST"
           (Printf.sprintf "/v1/sessions/s1/quarantine/%d/resolve" tid)
           {|{"action":"discard"}|})
    in
    let before = status p in
    failing_write discard;
    same "the failed discard kept the entry" before (status p);
    Alcotest.(check int) "retry" 200 (discard ());
    let _, body = request p "GET" "/v1/sessions/s1" "" in
    let report = member "report" (json_of body) in
    (match (member "quarantine" report, member "resolved" report) with
    | Json.Int 0, Json.Int 1 -> ()
    | _ -> Alcotest.failf "the retry discarded once: %s" (Json.to_string ~minify:true report));
    status p
  in
  let report, relation = last in
  let loaded = reload ~dir "s1" in
  Alcotest.(check string) "on disk: the acknowledged relation" relation
    (Csv.save_string loaded.Session.relation);
  List.iter
    (fun (name, value) ->
      Alcotest.(check bool)
        ("on disk: the acknowledged " ^ name)
        true
        (member name report = Json.Int value))
    [
      ("next_tid", loaded.Session.next_tid);
      ("batches", loaded.Session.batches);
      ("quarantine", List.length loaded.Session.quarantine);
      ("quarantined_total", loaded.Session.quarantined_total);
      ("resolved", loaded.Session.resolved);
    ]

(* A create whose first checkpoint fails answers 500 and leaves nothing
   behind: no session is listed and the state directory holds no file.
   A retry commits exactly one session. *)
let test_failed_create_commits_nothing () =
  with_tmp_dir @@ fun dir ->
  with_daemon ~state_dir:dir Serve.telemetry_off @@ fun p ->
  let create () =
    fst
      (request p "POST" "/v1/sessions"
         (Printf.sprintf
            {|{"schema":{"name":"r","attributes":["A","B"]},"rules":%s}|}
            (Json.to_string ~minify:true (Json.String plain_rules))))
  in
  let listed () =
    let _, body = request p "GET" "/v1/sessions" "" in
    match member "sessions" (member "report" (json_of body)) with
    | Json.List l -> List.length l
    | j -> Alcotest.failf "sessions: %s" (Json.to_string ~minify:true j)
  in
  let files () =
    if Sys.file_exists dir then List.sort compare (Array.to_list (Sys.readdir dir))
    else []
  in
  with_fault_plan "io.write@1" (fun () ->
      Alcotest.(check int) "a failed create answers 500" 500 (create ()));
  Alcotest.(check int) "no session listed" 0 (listed ());
  Alcotest.(check (list string)) "no state file" [] (files ());
  Alcotest.(check int) "retry" 201 (create ());
  Alcotest.(check int) "one session listed" 1 (listed ());
  Alcotest.(check int) "one snapshot on disk" 1
    (List.length (List.filter (fun f -> Filename.check_suffix f ".json") (files ())))

(* The lane property behind the whole design: concurrent clients
   ingesting into distinct sessions commit exactly what a sequential
   client would, batch for batch — checked with jobs on the handler
   threads (0 ingest workers) and on two worker domains.  Each session
   draws its engine, so V- and W-ordering sessions run on the workers
   too. *)
let int_rows_gen =
  QCheck.Gen.(
    list_size (2 -- 8)
      (array_repeat 4 (map Value.int (0 -- 2))))

let concurrent_instance =
  QCheck.make
    ~print:(fun (rules, per_session) ->
      Printf.sprintf "rules:\n%s\nengines: %s" rules
        (String.concat ", " (List.map fst per_session)))
    QCheck.Gen.(
      let* rules = fd_rules_gen in
      let* per_session =
        list_size (2 -- 3)
          (pair (oneofl [ "l-inc"; "inc"; "w-inc" ]) int_rows_gen)
      in
      return (rules, per_session))

let prop_concurrent_sessions_equal_sequential =
  QCheck.Test.make
    ~name:
      "concurrent ingest to distinct sessions equals sequential, ingest \
       workers 0/2"
    ~count:10 concurrent_instance
    (fun (rules, per_session) ->
      (* every session's rows go in as two batches, identically on both
         sides, so quarantine decisions line up *)
      let halves rows =
        let n = List.length rows in
        List.filter
          (fun b -> b <> [])
          [
            List.filteri (fun j _ -> j < n / 2) rows;
            List.filteri (fun j _ -> j >= n / 2) rows;
          ]
      in
      (* ground truth: each session alone, in-process, sequential *)
      let expected =
        List.map
          (fun (engine, rows) ->
            let s =
              match
                Session.create ~id:"x" ~schema_name:"r"
                  ~attributes:[ "A"; "B"; "C"; "D" ] ~rules ~engine
                  ~force:true ()
              with
              | Ok s -> s
              | Error e ->
                QCheck.Test.fail_reportf "create: %s" (Dq_error.to_string e)
            in
            Session.with_lock s (fun () ->
                List.iter
                  (fun batch ->
                    match
                      Session.ingest s
                        (List.map (fun v -> (v, None)) batch)
                    with
                    | Ok _ -> ()
                    | Error e ->
                      QCheck.Test.fail_reportf "ingest: %s"
                        (Dq_error.to_string e))
                  (halves rows);
                Csv.save_string s.Session.relation))
          per_session
      in
      let tuples_body rows =
        Json.to_string ~minify:true
          (Json.Obj
             [
               ( "tuples",
                 Json.List
                   (List.map
                      (fun values ->
                        Json.List
                          (List.map Json.of_value (Array.to_list values)))
                      rows) );
             ])
      in
      List.for_all
        (fun ingest_workers ->
          let limits = { Serve.default_limits with ingest_workers } in
          let d = start_daemon ~limits Serve.telemetry_off in
          Fun.protect
            ~finally:(fun () -> Serve.stop d)
            (fun () ->
              let p = Serve.port d in
              List.iter
                (fun (engine, _) ->
                  let status, _ =
                    request p "POST" "/v1/sessions"
                      (Printf.sprintf
                         {|{"schema":{"name":"r","attributes":["A","B","C","D"]},"rules":%s,"engine":%S,"force":true}|}
                         (Json.to_string ~minify:true (Json.String rules))
                         engine)
                  in
                  if status <> 201 then
                    QCheck.Test.fail_reportf "create: %d" status)
                per_session;
              (* one thread per session, each splitting its rows in two
                 batches *)
              let threads =
                List.mapi
                  (fun i (_, rows) ->
                    Thread.create
                      (fun () ->
                        let sid = Printf.sprintf "s%d" (i + 1) in
                        List.iter
                          (fun batch ->
                            let status, _ =
                              request p "POST"
                                ("/v1/sessions/" ^ sid ^ "/tuples")
                                (tuples_body batch)
                            in
                            if status <> 200 then
                              QCheck.Test.fail_reportf "ingest %s: %d" sid
                                status)
                          (halves rows))
                      ())
                  per_session
              in
              List.iter Thread.join threads;
              List.for_all2
                (fun i want ->
                  let _, got =
                    request p "GET"
                      (Printf.sprintf "/v1/sessions/s%d/relation" (i + 1))
                      ""
                  in
                  String.equal want got)
                (List.mapi (fun i _ -> i) per_session)
                expected))
        [ 0; 2 ])

let suite =
  [
    Alcotest.test_case "http: request parsing" `Quick test_http_parse;
    Alcotest.test_case "http: bare-LF heads accepted" `Quick
      test_http_parse_bare_lf;
    Alcotest.test_case "http: framing errors are typed" `Quick
      test_http_parse_errors;
    Alcotest.test_case "session: creation gates" `Quick test_session_gates;
    Alcotest.test_case "session: quarantine lifecycle" `Quick
      test_quarantine_lifecycle;
    Alcotest.test_case "store: exact round-trip" `Quick test_store_round_trip;
    Alcotest.test_case "e2e: restart serves byte-identical relations" `Quick
      test_e2e_restart;
    Alcotest.test_case "telemetry: request ids echo, sanitize, generate" `Quick
      test_request_ids;
    Alcotest.test_case "telemetry: off means no ids, no metrics route" `Quick
      test_zero_overhead_no_id;
    Alcotest.test_case "telemetry: health reports version and uptime" `Quick
      test_health_fields;
    Alcotest.test_case "telemetry: /v1/metrics Prometheus exposition" `Quick
      test_metrics_endpoint;
    Alcotest.test_case "telemetry: access-log line schema and correlation"
      `Quick test_access_log_schema;
    Alcotest.test_case "overload: announced oversized body is 413" `Quick
      test_oversized_body_413;
    Alcotest.test_case "overload: keep-alive pipelining and close framing"
      `Quick test_keep_alive_pipelining;
    Alcotest.test_case "overload: full lane sheds 429 with retry-after" `Quick
      test_queue_full_429;
    Alcotest.test_case "e2e: a DELETE racing an ingest leaves nothing" `Quick
      test_delete_races_ingest;
    Alcotest.test_case "overload: drain refuses with 503 and closes" `Quick
      test_drain_refuses_and_closes;
    Alcotest.test_case "overload: breaker quarantines until resume" `Quick
      test_breaker_quarantine_and_resume;
    Alcotest.test_case "overload: idle eviction reloads byte-identical" `Quick
      test_evict_and_reload;
    Alcotest.test_case "store: version-1 session file loads" `Quick
      test_store_loads_v1;
    Alcotest.test_case "store: a torn last journal line is ignored" `Quick
      test_journal_torn_tail;
    Alcotest.test_case "store: records the snapshot covers are skipped" `Quick
      test_journal_skips_covered_records;
    Alcotest.test_case "store: a failed append makes the next save a snapshot"
      `Quick test_journal_failed_append;
    Alcotest.test_case "store: a new session removes a stale journal" `Quick
      test_journal_stale_at_create;
    Alcotest.test_case "store: one record may cover several mutations" `Quick
      test_journal_record_covers_several;
    Alcotest.test_case "session: a quarantined tuple leaves the environment"
      `Quick test_quarantine_leaves_environment;
    Alcotest.test_case "session: rollback undoes a committed batch" `Quick
      test_rollback_restores_session;
    Alcotest.test_case "e2e: a failed checkpoint commits nothing" `Quick
      test_failed_checkpoint_commits_nothing;
    Alcotest.test_case "e2e: a failed create commits nothing" `Quick
      test_failed_create_commits_nothing;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_journal_reload;
        prop_batches_equal_one_shot;
        prop_concurrent_sessions_equal_sequential;
        prop_kept_env_equals_reference;
      ]
