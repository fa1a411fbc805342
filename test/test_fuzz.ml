(* A fixed-seed fuzz corpus for the decoders that read input from outside
   the program: checkpoints, serve session files, CSV, CFD rulesets
   (parsed, then linted) and HTTP requests.  Each case takes a committed
   fixture and mutates it by truncation, byte flips and punctuation
   swaps; every decoder must answer [Ok] or [Error] and never raise. *)

open Dq_relation
open Dq_cfd
open Dq_analysis
module Http = Dq_serve.Http

let data = "../data/"

let read path = In_channel.with_open_bin path In_channel.input_all

let files dir ext =
  Sys.readdir (data ^ dir)
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ext)
  |> List.sort String.compare
  |> List.map (fun f -> data ^ dir ^ "/" ^ f)

(* The loaders that take a path read the mutated text from one scratch
   file.  Its name ends in .json with no journal beside it, so
   [Store.load] replays nothing. *)
let scratch =
  lazy
    (let path = Filename.temp_file "fuzz" ".json" in
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     path)

let through_file load text =
  let path = Lazy.force scratch in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  ignore (load path)

(* The raw requests test/cli/serve.t sends, plus a create and an ingest
   with bodies. *)
let requests =
  [
    "GET /v1/health HTTP/1.1\r\nconnection: close\r\ncontent-length: 0\r\n\r\n";
    "POST /v1/sessions/s1/tuples HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n";
    "GET /v1/health HTTP/1.1\r\ncontent-length: banana\r\n\r\n";
    "GET /v1/health HTTP/1.1\r\ncontent-len";
    "POST /v1/sessions HTTP/1.1\r\ncontent-length: 50\r\n\r\nshort";
    "POST /v1/sessions HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n\
     2\r\n{}\r\n0\r\n\r\n";
    "POST /v1/sessions HTTP/1.1\r\ncontent-length: 71\r\ncontent-length: \
     5\r\n\r\n\
     {\"schema\":{\"name\":\"r\",\"attributes\":[\"A\",\"B\"]},\
     \"rules\":\"p1: [A] -> [B]\"}";
    "GET /v1/health HTTP/1.1\r\ncontent-length: 0\r\n\r\nNOT A REQUEST\r\n\r\n";
    "GET /v1/health HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n";
    "POST /v1/sessions/s1/tuples HTTP/1.1\r\nx-deadline-seconds: \
     2.5\r\ncontent-length: 27\r\n\r\n{\"tuples\":[[212,\"a\",null]]}";
  ]

(* (decoder, seed texts, run); the seeds are read on first use *)
let decoders =
  [
    ( "Checkpoint.load",
      lazy (List.map read (files "checkpoint_fixtures" ".ckpt")),
      through_file Dq_core.Checkpoint.load );
    ( "Store.load",
      lazy [ read (data ^ "serve_fixtures/session_v1.json") ],
      through_file Dq_serve.Store.load );
    ( "Csv.load_string_res",
      lazy
        (List.map read
           ((data ^ "orders.csv") :: files "engine_fixtures" ".csv")),
      fun text -> ignore (Csv.load_string_res text) );
    ( "Cfd_parser.parse_string_located + Lint.run",
      lazy
        (List.map read
           (((data ^ "orders.cfd") :: files "lint_fixtures" ".cfd")
           @ files "analyze_fixtures" ".cfd"
           @ files "engine_fixtures" ".cfd")),
      fun text ->
        match Cfd_parser.parse_string_located text with
        | Ok tabs -> ignore (Lint.run tabs)
        | Error _ -> () );
    ("Http.parse", lazy requests, fun text -> ignore (Http.parse text));
  ]

(* An edit's position is taken modulo the text's length when it is
   applied, so edits compose after a truncation. *)
type edit = Truncate of int | Flip of int * char | Swap of int * char

let punctuation = "{}[]():,;\"\\|_-.= \r\n"

let apply text edit =
  let n = String.length text in
  if n = 0 then text
  else
    match edit with
    | Truncate p -> String.sub text 0 (p mod n)
    | Flip (p, c) -> String.mapi (fun i x -> if i = p mod n then c else x) text
    | Swap (p, c) -> (
      (* the first punctuation byte at or after [p], wrapping around *)
      let at k = (p + k) mod n in
      match
        List.find_opt
          (fun k -> String.contains punctuation text.[at k])
          (List.init n Fun.id)
      with
      | Some k -> String.mapi (fun i x -> if i = at k then c else x) text
      | None -> text)

let edit_gen =
  let open QCheck.Gen in
  let pos = int_bound 1_000_000 in
  frequency
    [
      (1, map (fun p -> Truncate p) pos);
      (2, map2 (fun p c -> Flip (p, c)) pos char);
      ( 3,
        map2
          (fun p i -> Swap (p, punctuation.[i]))
          pos
          (int_bound (String.length punctuation - 1)) );
    ]

(* A case: which decoder, which of its seeds (modulo their number) and
   the edits to apply to that seed. *)
let case_gen =
  QCheck.Gen.(
    triple
      (int_bound (List.length decoders - 1))
      (int_bound 1_000)
      (list_size (1 -- 4) edit_gen))

let mutated (d, pick, edits) =
  let name, seeds, run = List.nth decoders d in
  let seeds = Lazy.force seeds in
  let seed = List.nth seeds (pick mod List.length seeds) in
  (name, run, List.fold_left apply seed edits)

let prop_decoders_never_raise =
  QCheck.Test.make ~count:20_000
    ~name:"mutated fixtures decode to Ok or Error, never raise"
    (QCheck.make
       ~print:(fun case ->
         let name, _, text = mutated case in
         Printf.sprintf "%s on %S" name text)
       case_gen)
    (fun case ->
      let _, run, text = mutated case in
      run text;
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |])
      prop_decoders_never_raise;
  ]
