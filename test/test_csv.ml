open Dq_relation

let test_parse_simple () =
  Alcotest.(check (list (list string)))
    "rows" [ [ "a"; "b" ]; [ "c"; "d" ] ]
    (Csv.parse_string "a,b\nc,d\n")

let test_parse_crlf_and_no_trailing_newline () =
  Alcotest.(check (list (list string)))
    "crlf" [ [ "a"; "b" ]; [ "c"; "d" ] ]
    (Csv.parse_string "a,b\r\nc,d")

let test_parse_quoted () =
  Alcotest.(check (list (list string)))
    "quotes" [ [ "a,b"; "he said \"hi\""; "multi\nline" ] ]
    (Csv.parse_string "\"a,b\",\"he said \"\"hi\"\"\",\"multi\nline\"")

let test_parse_empty_cells () =
  Alcotest.(check (list (list string)))
    "empties" [ [ ""; "x"; "" ] ]
    (Csv.parse_string ",x,\n")

let test_unterminated_quote () =
  Alcotest.check_raises "unterminated"
    (Failure "Csv.parse_string: line 1, column 1: unterminated quoted field")
    (fun () -> ignore (Csv.parse_string "\"oops"))

let test_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape_cell "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape_cell "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape_cell "a\"b")

let test_load_and_save_roundtrip () =
  let text = "A,B,C\n1,NYC,\nx y,\"q,r\",2.5\n" in
  let rel = Csv.load_string ~name:"t" text in
  Alcotest.(check int) "two rows" 2 (Relation.cardinality rel);
  let t0 = Relation.find_exn rel 0 in
  Alcotest.(check bool) "int typed" true (Value.equal (Tuple.get t0 0) (Value.int 1));
  Alcotest.(check bool) "null cell" true (Value.is_null (Tuple.get t0 2));
  let rel2 = Csv.load_string ~name:"t" (Csv.save_string rel) in
  Alcotest.(check int) "roundtrip identical" 0 (Relation.dif rel rel2)

let test_load_ragged () =
  Alcotest.check_raises "ragged row"
    (Failure "Csv.load_string: line 2, column 1: row has 1 cells, expected 2")
    (fun () -> ignore (Csv.load_string "A,B\nonly_one\n"))

let test_load_empty () =
  Alcotest.check_raises "empty file"
    (Failure
       "Csv.load_string: line 1, column 1: empty input: expected a header row")
    (fun () -> ignore (Csv.load_string ""))

(* The structured [_res] variants report a 1-based source position. *)
let check_error name ~line ~col ~message = function
  | Ok _ -> Alcotest.failf "%s: expected Error, got Ok" name
  | Error e ->
    Alcotest.(check (triple int int string))
      name (line, col, message)
      (e.Csv.line, e.Csv.col, e.Csv.message)

let test_structured_errors () =
  check_error "unterminated position" ~line:3 ~col:3
    ~message:"unterminated quoted field"
    (Csv.parse_string_res "a,b\nc,d\ne,\"oops\nstill open");
  check_error "NUL byte" ~line:2 ~col:2 ~message:"NUL byte in input"
    (Csv.parse_string_res "ok\na\000b");
  check_error "field guard" ~line:1 ~col:3
    ~message:"field longer than 4 bytes"
    (Csv.parse_string_res ~max_field_bytes:4 "a,bcdefgh");
  check_error "ragged" ~line:3 ~col:1 ~message:"row has 3 cells, expected 2"
    (Csv.load_string_res "A,B\n1,2\n1,2,3\n");
  check_error "duplicate header" ~line:1 ~col:1
    ~message:"bad header: Schema.make: duplicate attribute \"A\""
    (Csv.load_string_res "A,A\n1,2\n")

let test_crlf_in_quotes () =
  (* CRLF is a row separator outside quotes but literal bytes inside. *)
  Alcotest.(check (list (list string)))
    "quoted crlf" [ [ "a\r\nb" ]; [ "c" ] ]
    (Csv.parse_string "\"a\r\nb\"\r\nc\r\n")

let prop_load_never_raises =
  (* Any byte sequence either loads or yields a structured error — the
     hardened loader never raises.  The alphabet is skewed towards the
     CSV metacharacters and hostile bytes. *)
  let byte =
    QCheck.Gen.(
      oneof
        [
          oneofl [ ','; '"'; '\n'; '\r'; '\000'; 'a'; '1'; '.' ];
          char_range '\000' '\255';
        ])
  in
  QCheck.Test.make ~name:"load_string_res never raises" ~count:1000
    (QCheck.make QCheck.Gen.(string_size ~gen:byte (0 -- 60)))
    (fun text ->
      match Csv.load_string_res text with Ok _ | Error _ -> true)

let test_save_file_atomic_on_fault () =
  (* Satellite (a): an injected crash mid-write must leave the previous
     file contents intact — Atomic_io writes a temp file and renames. *)
  let path = Filename.temp_file "dataqual" ".csv" in
  Fun.protect
    ~finally:(fun () ->
      Dq_fault.Fault.disarm ();
      Sys.remove path)
    (fun () ->
      let rel = Csv.load_string ~name:"t" "A,B\n1,x\n" in
      Csv.save_file rel path;
      let before = Csv.save_string rel in
      let rel2 = Csv.load_string ~name:"t" "A,B\n2,y\n3,z\n" in
      (match Dq_fault.Fault.parse_plan "io.write@1" with
      | Ok plan -> Dq_fault.Fault.arm plan
      | Error msg -> Alcotest.failf "plan: %s" msg);
      (match Csv.save_file rel2 path with
      | () -> Alcotest.fail "expected the io.write fault to fire"
      | exception Dq_fault.Fault.Injected site ->
        Alcotest.(check string) "site" "io.write" site);
      Dq_fault.Fault.disarm ();
      let ic = open_in_bin path in
      let after =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check string) "original contents intact" before after)

let test_file_roundtrip () =
  let path = Filename.temp_file "dataqual" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let rel = Csv.load_string ~name:"t" "A,B\n1,x\n2,y\n" in
      Csv.save_file rel path;
      let rel2 = Csv.load_file path in
      Alcotest.(check int) "file roundtrip" 0 (Relation.dif rel rel2))

let prop_roundtrip =
  (* Cells from a CSV-hostile alphabet: commas, quotes, newlines. *)
  let cell =
    QCheck.Gen.(
      string_size ~gen:(oneofl [ 'a'; ','; '"'; '\n'; 'z' ]) (1 -- 6))
  in
  QCheck.Test.make ~name:"escape/parse roundtrip" ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 4) cell))
    (fun row ->
      let text = Csv.rows_to_string [ row ] in
      match Csv.parse_string text with [ parsed ] -> parsed = row | _ -> false)

(* ---- floats written back exactly ----------------------------------- *)

(* A repair that changes nothing must write its input's floats back as
   they were read, not rounded to six significant digits. *)
let test_floats_survive_repair () =
  let text =
    "id,grp,price\n1,a,1234.5678\n2,b,0.30000000000000004\n\
     3,c,123456789.123\n4,d,17.99\n"
  in
  let rel = Csv.load_string ~name:"p" text in
  let sigma =
    match Dq_cfd.Cfd_parser.parse_string "f1: [grp] -> [price]\n" with
    | Ok tabs -> Dq_cfd.Cfd_parser.resolve (Relation.schema rel) tabs
    | Error e -> Alcotest.failf "ruleset: %a" Dq_cfd.Cfd_parser.pp_error e
  in
  let repaired, stats = Helpers.ok (Dq_core.Batch_repair.repair rel sigma) in
  Alcotest.(check int) "no cell changed" 0 stats.Dq_core.Batch_repair.cells_changed;
  Alcotest.(check string) "prices unchanged" text (Csv.save_string repaired)

let prop_float_roundtrip =
  (* Any finite float, built from random bits, reads back as itself; so do
     integral floats of 16 and 17 digits and short decimals, which random
     bits seldom hit. *)
  let finite =
    QCheck.Gen.(
      let bits st =
        let rec pick () =
          let f = Int64.float_of_bits (ui64 st) in
          if Float.is_finite f then f else pick ()
        in
        pick ()
      in
      let sign g = map2 (fun neg f -> if neg then -.f else f) bool g in
      frequency
        [
          (4, bits);
          (1, sign (map float_of_int (int_range 1_000_000_000_000_000 100_000_000_000_000_000)));
          (1, sign (map2 (fun k e -> float_of_int k /. (10. ** float_of_int e)) nat (0 -- 20)));
        ])
  in
  QCheck.Test.make ~name:"save_string then load_string keeps every float"
    ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%h") finite)
    (fun f ->
      let rel = Relation.create (Schema.make ~name:"f" [ "x" ]) in
      ignore (Relation.insert rel [| Value.float f |]);
      match Relation.to_list (Csv.load_string ~name:"f" (Csv.save_string rel)) with
      | [ t ] -> Test_value.same_value (Tuple.get t 0) (Value.float f)
      | _ -> false)

(* ---- the one-pass loader against the two-pass one ---------------------- *)

(* The parser and loader as they were before loading became one pass,
   kept as a test-only oracle: the whole text is parsed into rows of
   strings byte by byte, then each row is typed and inserted. *)
module Reference = struct
  exception Csv_error of Csv.error

  let parse_rows ?(max_field_bytes = 64 * 1024 * 1024) text =
    let n = String.length text in
    let rows = Vec.create () in
    let row = Vec.create () in
    let cell = Buffer.create 32 in
    let line = ref 1 and col = ref 1 in
    let row_line = ref 1 in
    let cell_line = ref 1 and cell_col = ref 1 in
    let error l c message = raise (Csv_error { Csv.line = l; col = c; message }) in
    let advance c =
      if c = '\n' then begin
        incr line;
        col := 1
      end
      else incr col
    in
    let add_to_cell c =
      if Buffer.length cell >= max_field_bytes then
        error !cell_line !cell_col
          (Printf.sprintf "field longer than %d bytes" max_field_bytes);
      Buffer.add_char cell c
    in
    let flush_cell () =
      Vec.push row (Buffer.contents cell);
      Buffer.clear cell
    in
    let flush_row () =
      flush_cell ();
      Vec.push rows (!row_line, Vec.to_list row);
      Vec.clear row;
      row_line := !line
    in
    let rec plain i =
      if i >= n then begin
        if Vec.length row > 0 || Buffer.length cell > 0 then flush_row ()
      end
      else begin
        let c = text.[i] in
        if c = '\000' then error !line !col "NUL byte in input";
        match c with
        | ',' ->
          advance c;
          flush_cell ();
          plain (i + 1)
        | '\n' ->
          advance c;
          flush_row ();
          plain (i + 1)
        | '\r' when i + 1 < n && text.[i + 1] = '\n' ->
          advance '\r';
          advance '\n';
          flush_row ();
          plain (i + 2)
        | '"' when Buffer.length cell = 0 ->
          cell_line := !line;
          cell_col := !col;
          advance c;
          quoted (i + 1)
        | c ->
          if Buffer.length cell = 0 then begin
            cell_line := !line;
            cell_col := !col
          end;
          advance c;
          add_to_cell c;
          plain (i + 1)
      end
    and quoted i =
      if i >= n then error !cell_line !cell_col "unterminated quoted field"
      else begin
        let c = text.[i] in
        if c = '\000' then error !line !col "NUL byte in input";
        match c with
        | '"' when i + 1 < n && text.[i + 1] = '"' ->
          advance '"';
          advance '"';
          add_to_cell '"';
          quoted (i + 2)
        | '"' ->
          advance c;
          plain (i + 1)
        | c ->
          advance c;
          add_to_cell c;
          quoted (i + 1)
      end
    in
    match plain 0 with
    | () -> Ok (Vec.to_list rows)
    | exception Csv_error e -> Error e

  let parse_string_res ?max_field_bytes text =
    Result.map (List.map snd) (parse_rows ?max_field_bytes text)

  let load_string_res ?(name = "R") ?max_field_bytes text =
    match parse_rows ?max_field_bytes text with
    | Error e -> Error e
    | Ok [] ->
      Error
        { Csv.line = 1; col = 1; message = "empty input: expected a header row" }
    | Ok ((header_line, header) :: data) -> (
      match Schema.make ~name header with
      | exception Invalid_argument msg ->
        Error { Csv.line = header_line; col = 1; message = "bad header: " ^ msg }
      | schema ->
        let rel = Relation.create schema in
        let arity = List.length header in
        (try
           List.iter
             (fun (line, row) ->
               let cells = List.length row in
               if cells <> arity then
                 raise
                   (Csv_error
                      {
                        Csv.line;
                        col = 1;
                        message =
                          Printf.sprintf "row has %d cells, expected %d" cells
                            arity;
                      });
               let values =
                 Array.of_list (List.map Test_value.Reference.of_string row)
               in
               ignore (Relation.insert rel values))
             data;
           Ok rel
         with Csv_error e -> Error e))
end

(* Same schema, tids and values (floats by their bits), or the same
   error. *)
let same_load a b =
  match a, b with
  | Ok r1, Ok r2 ->
    let rows r =
      List.map (fun t -> (Tuple.tid t, Tuple.values t)) (Relation.to_list r)
    in
    Schema.equal (Relation.schema r1) (Relation.schema r2)
    && List.equal
         (fun (i, v1) (j, v2) ->
           i = j && Array.for_all2 Test_value.same_value v1 v2)
         (rows r1) (rows r2)
  | Error e1, Error e2 -> e1 = e2
  | Ok _, Error _ | Error _, Ok _ -> false

(* Bytes that steer the parser or the typing, and arbitrary ones. *)
let hostile_byte =
  QCheck.Gen.(
    frequency
      [
        (8, oneofl (List.of_seq (String.to_seq ",\"\n\r\000,\"\n0123456789+-._exin")));
        (1, char_range '\000' '\255');
      ])

(* Random bytes, or rows of cells (some quoted, some not) under a header
   that is usually valid, with metacharacters rarer inside the cells, so
   that loads succeed as well as fail. *)
let hostile_text =
  QCheck.Gen.(
    let raw = string_size ~gen:hostile_byte (0 -- 60) in
    let cell_byte =
      frequency
        [
          (12, oneofl (List.of_seq (String.to_seq "0123456789+-._exinN ")));
          (1, hostile_byte);
        ]
    in
    let cell = string_size ~gen:cell_byte (0 -- 6) in
    let quoted = map (fun s -> "\"" ^ s ^ "\"") cell in
    let rows =
      let* arity = 1 -- 4 in
      let header = String.concat "," (List.init arity (fun i -> Printf.sprintf "a%d" i)) in
      let row =
        let* cells = list_repeat arity (frequency [ (3, cell); (1, quoted) ]) in
        let* ending = oneofl [ "\n"; "\r\n"; "" ] in
        return (String.concat "," cells ^ ending)
      in
      let* data = list_size (0 -- 5) row in
      let* sep = oneofl [ "\n"; "\r\n" ] in
      return (String.concat "" ((header ^ sep) :: data))
    in
    frequency [ (1, raw); (1, rows) ])

let max_field_bytes_gen =
  QCheck.Gen.(frequency [ (2, return None); (1, map Option.some (1 -- 8)) ])

let arb_hostile =
  QCheck.make
    ~print:(fun (m, text) ->
      Printf.sprintf "max_field_bytes=%s %S"
        (match m with Some k -> string_of_int k | None -> "default")
        text)
    QCheck.Gen.(pair max_field_bytes_gen hostile_text)

let prop_load_equals_reference =
  QCheck.Test.make ~name:"load_string_res equals the two-pass loader"
    ~count:3000 arb_hostile (fun (max_field_bytes, text) ->
      same_load
        (Csv.load_string_res ?max_field_bytes text)
        (Reference.load_string_res ?max_field_bytes text))

let prop_parse_equals_reference =
  QCheck.Test.make ~name:"parse_string_res equals the two-pass parser"
    ~count:3000 arb_hostile (fun (max_field_bytes, text) ->
      Csv.parse_string_res ?max_field_bytes text
      = Reference.parse_string_res ?max_field_bytes text)

let suite =
  [
    Alcotest.test_case "parse simple" `Quick test_parse_simple;
    Alcotest.test_case "parse crlf" `Quick test_parse_crlf_and_no_trailing_newline;
    Alcotest.test_case "parse quoted" `Quick test_parse_quoted;
    Alcotest.test_case "empty cells" `Quick test_parse_empty_cells;
    Alcotest.test_case "unterminated quote" `Quick test_unterminated_quote;
    Alcotest.test_case "escape" `Quick test_escape;
    Alcotest.test_case "load/save roundtrip" `Quick test_load_and_save_roundtrip;
    Alcotest.test_case "ragged rows rejected" `Quick test_load_ragged;
    Alcotest.test_case "empty input rejected" `Quick test_load_empty;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "structured errors" `Quick test_structured_errors;
    Alcotest.test_case "crlf inside quotes" `Quick test_crlf_in_quotes;
    QCheck_alcotest.to_alcotest prop_load_never_raises;
    Alcotest.test_case "save_file atomic on fault" `Quick
      test_save_file_atomic_on_fault;
    QCheck_alcotest.to_alcotest prop_load_equals_reference;
    QCheck_alcotest.to_alcotest prop_parse_equals_reference;
    Alcotest.test_case "floats survive repair" `Quick test_floats_survive_repair;
    QCheck_alcotest.to_alcotest prop_float_roundtrip;
  ]
