open Dq_relation
open Dq_cfd
open Dq_analysis
open Helpers

(* Fixtures are staged by the (deps ...) of the test stanza; the runner's
   cwd is _build/default/test. *)
let fixture name = "../data/lint_fixtures/" ^ name

let parse_fixture name =
  match Cfd_parser.parse_file_located (fixture name) with
  | Ok tabs -> tabs
  | Error e -> Alcotest.failf "fixture %s: %a" name Cfd_parser.pp_error e

let lint ?schema name = Lint.run ?schema (parse_fixture name)

let has code diags = List.exists (fun d -> d.Diagnostic.code = code) diags

let find code diags = List.find (fun d -> d.Diagnostic.code = code) diags

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  n = 0 || go 0

let test_clean_file () =
  Alcotest.(check int)
    "zero diagnostics with schema" 0
    (List.length (lint ~schema:order_schema "clean.cfd"));
  Alcotest.(check int)
    "zero diagnostics without schema" 0
    (List.length (lint "clean.cfd"))

let test_syntax_error_position () =
  match Cfd_parser.parse_file_located (fixture "e000.cfd") with
  | Ok _ -> Alcotest.fail "e000.cfd should not parse"
  | Error e ->
    Alcotest.(check int) "line" 3 e.Cfd_parser.line;
    Alcotest.(check int) "column of the stray '|'" 8 e.Cfd_parser.col

let test_unsatisfiable () =
  let diags = lint ~schema:order_schema "e001.cfd" in
  let d = find Diagnostic.E001 diags in
  Alcotest.(check bool) "core names all_nyc" true
    (contains ~sub:"all_nyc" d.Diagnostic.message);
  Alcotest.(check bool) "core names all_phi" true
    (contains ~sub:"all_phi" d.Diagnostic.message);
  Alcotest.(check bool) "minimal core excludes extra" false
    (contains ~sub:"extra" d.Diagnostic.message);
  Alcotest.(check bool) "positioned" true (d.Diagnostic.span <> None)

let test_conflicting_constants () =
  let diags = lint ~schema:order_schema "e002.cfd" in
  Alcotest.(check bool) "E002 fires" true (has Diagnostic.E002 diags);
  Alcotest.(check bool) "still satisfiable: no E001" false
    (has Diagnostic.E001 diags)

let test_unknown_attribute () =
  let diags = lint ~schema:order_schema "e003.cfd" in
  let e003 = List.filter (fun d -> d.Diagnostic.code = Diagnostic.E003) diags in
  Alcotest.(check int) "unknown attr + duplicate LHS" 2 (List.length e003);
  let unknown = List.hd e003 in
  Alcotest.(check bool) "names the attribute" true
    (contains ~sub:"area_code" unknown.Diagnostic.message);
  (match unknown.Diagnostic.span with
  | Some s ->
    Alcotest.(check int) "line of area_code" 3 s.Cfd_parser.line;
    Alcotest.(check int) "column of area_code" 12 s.Cfd_parser.col_start
  | None -> Alcotest.fail "E003 should carry a span");
  (* Without a schema the unknown-attribute check cannot run, but the
     duplicate-LHS one still does. *)
  let no_schema = lint "e003.cfd" in
  Alcotest.(check int) "duplicate LHS only" 1
    (List.length
       (List.filter (fun d -> d.Diagnostic.code = Diagnostic.E003) no_schema))

let test_redundant_row () =
  let diags = lint ~schema:order_schema "w001.cfd" in
  Alcotest.(check bool) "W001 fires" true (has Diagnostic.W001 diags);
  Alcotest.(check bool) "no error codes" false
    (List.exists Diagnostic.is_error diags);
  (* errors_only skips the (expensive) warning checks entirely. *)
  Alcotest.(check int) "errors_only is silent here" 0
    (List.length (Lint.run ~errors_only:true ~schema:order_schema
                    (parse_fixture "w001.cfd")))

let test_subsumed_row () =
  let diags = lint ~schema:order_schema "w002.cfd" in
  let d = find Diagnostic.W002 diags in
  Alcotest.(check bool) "points at row 2" true
    (contains ~sub:"row 2" d.Diagnostic.message)

let test_trivial_cfd () =
  let diags = lint ~schema:order_schema "w003.cfd" in
  Alcotest.(check bool) "W003 fires" true (has Diagnostic.W003 diags);
  Alcotest.(check bool) "no W001 double-report on a fully trivial CFD" false
    (has Diagnostic.W001 diags)

let test_cyclic_interaction () =
  let diags = lint ~schema:order_schema "w004.cfd" in
  let d = find Diagnostic.W004 diags in
  Alcotest.(check bool) "names zip_city" true
    (contains ~sub:"zip_city" d.Diagnostic.message);
  Alcotest.(check bool) "names city_zip" true
    (contains ~sub:"city_zip" d.Diagnostic.message);
  (* The paper's own Figure 2 ruleset has the CT <-> zip cycle. *)
  match Cfd_parser.parse_file_located "../data/orders.cfd" with
  | Error e -> Alcotest.failf "orders.cfd: %a" Cfd_parser.pp_error e
  | Ok tabs ->
    let diags = Lint.run ~schema:order_schema tabs in
    Alcotest.(check bool) "orders.cfd: W004 only" true
      (diags <> [] && List.for_all (fun d -> d.Diagnostic.code = Diagnostic.W004) diags);
    Alcotest.(check bool) "orders.cfd: no errors" false
      (List.exists Diagnostic.is_error diags)

let test_duplicates () =
  let diags = lint ~schema:order_schema "w005.cfd" in
  let w005 = List.filter (fun d -> d.Diagnostic.code = Diagnostic.W005) diags in
  Alcotest.(check int) "duplicate name + duplicate row" 2 (List.length w005)

(* Every diagnostic code shows up, with its code string, in both the text
   and the JSON rendering of its fixture. *)
let test_renderings () =
  let cases =
    [
      ("e001.cfd", Diagnostic.E001);
      ("e002.cfd", Diagnostic.E002);
      ("e003.cfd", Diagnostic.E003);
      ("w001.cfd", Diagnostic.W001);
      ("w002.cfd", Diagnostic.W002);
      ("w003.cfd", Diagnostic.W003);
      ("w004.cfd", Diagnostic.W004);
      ("w005.cfd", Diagnostic.W005);
    ]
  in
  List.iter
    (fun (file, code) ->
      let diags = lint ~schema:order_schema file in
      let code_str = Diagnostic.code_to_string code in
      let text =
        String.concat "\n"
          (List.map
             (fun d -> Fmt.str "%a" (Render.pp_text ?source:None ~path:file) d)
             diags)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s in text output of %s" code_str file)
        true
        (contains ~sub:(Printf.sprintf "[%s]" code_str) text);
      let json =
        Dq_obs.Json.(to_string (List (List.map Diagnostic.to_json diags)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s in json output of %s" code_str file)
        true
        (contains ~sub:(Printf.sprintf "\"code\": \"%s\"" code_str) json))
    cases

let test_text_render_caret () =
  let diags = lint ~schema:order_schema "e003.cfd" in
  let source =
    let ic = open_in_bin (fixture "e003.cfd") in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let d = find Diagnostic.E003 diags in
  let text = Fmt.str "%a" (Render.pp_text ~path:"e003.cfd" ~source) d in
  Alcotest.(check bool) "shows the offending line" true
    (contains ~sub:"[area_code]" text);
  Alcotest.(check bool) "underlines it" true (contains ~sub:"^^^" text)

let test_json_escaping () =
  let d = Diagnostic.make Diagnostic.E000 "a \"quoted\"\nmessage" in
  let json = Dq_obs.Json.to_string (Diagnostic.to_json d) in
  Alcotest.(check bool) "escapes quotes and newlines" true
    (contains ~sub:{|a \"quoted\"\nmessage|} json)

let test_summary () =
  let diags = lint ~schema:order_schema "e003.cfd" in
  Alcotest.(check string) "summary" "2 errors, 0 warnings"
    (Render.summary diags)

(* ---- E002 against the all-pairs reference ------------------------------ *)

(* Random rulesets: 1-5 tableaux, each with 1-3 LHS attributes in random
   order, 1-2 RHS attributes and 0-8 rows (0 makes a plain FD) of wildcard
   or constant entries over a tiny domain that includes the look-alikes
   1, 1.0 and "1".  Local to this property. *)
let ruleset_gen =
  let open QCheck.Gen in
  let attrs = [ "A"; "B"; "C"; "D" ] in
  let entry = frequency [ (1, return "_"); (2, oneofl [ "1"; "1.0"; {|"1"|}; "2" ]) ] in
  let tableau i =
    let* width = 1 -- 3 in
    let* perm = shuffle_l attrs in
    let lhs = List.filteri (fun k _ -> k < width) perm in
    let rest = List.filteri (fun k _ -> k >= width) perm in
    let* n_rhs = 1 -- min 2 (List.length rest) in
    let rhs = List.filteri (fun k _ -> k < n_rhs) rest in
    let* rows =
      list_size (0 -- 8)
        (pair (list_repeat width entry) (list_repeat n_rhs entry))
    in
    let row (l, r) =
      Printf.sprintf "  (%s || %s)\n" (String.concat ", " l) (String.concat ", " r)
    in
    return
      (Printf.sprintf "t%d: [%s] -> [%s]%s\n" i (String.concat ", " lhs)
         (String.concat ", " rhs)
         (if rows = [] then ""
          else " {\n" ^ String.concat "" (List.map row rows) ^ "}"))
  in
  let* n = 1 -- 5 in
  map (String.concat "") (flatten_l (List.init n tableau))

(* The all-pairs E002 check, kept as the reference: every pair [i < j] of
   normal-form clauses, in the order lint numbers them.  Plain FDs have
   wildcard RHS patterns only, so they are left out. *)
let e002_reference schema (tabs : Cfd_parser.Located.tableau list) =
  let clauses =
    List.concat_map
      (fun (lt : Cfd_parser.Located.tableau) ->
        List.concat
          (List.mapi
             (fun j ((row : Cfd.Tableau.row), span) ->
               List.map2
                 (fun rhs_attr rhs_pat ->
                   ( Cfd.make ~name:lt.tab.name schema
                       ~lhs:(List.combine lt.tab.lhs_attrs row.lhs)
                       ~rhs:(rhs_attr, rhs_pat),
                     Printf.sprintf "%s row %d" lt.tab.name (j + 1),
                     span ))
                 lt.tab.rhs_attrs row.rhs)
             (List.combine lt.tab.rows lt.row_spans)))
      tabs
    |> Array.of_list
  in
  let pat_at c pos =
    let lhs = Cfd.lhs c and pats = Cfd.lhs_patterns c in
    let rec find k =
      if k >= Array.length lhs then Pattern.Wild
      else if lhs.(k) = pos then pats.(k)
      else find (k + 1)
    in
    find 0
  in
  let sorted a = List.sort Int.compare (Array.to_list a) in
  let out = ref [] in
  Array.iteri
    (fun i (c1, label1, _) ->
      Array.iteri
        (fun j (c2, label2, span2) ->
          if i < j && Cfd.rhs c1 = Cfd.rhs c2 && sorted (Cfd.lhs c1) = sorted (Cfd.lhs c2)
          then
            match (Cfd.rhs_pattern c1, Cfd.rhs_pattern c2) with
            | Pattern.Const v1, Pattern.Const v2 when not (Value.equal v1 v2) ->
              let compatible =
                Array.for_all
                  (fun pos ->
                    match (pat_at c1 pos, pat_at c2 pos) with
                    | Pattern.Wild, _ | _, Pattern.Wild -> true
                    | Pattern.Const a, Pattern.Const b -> Value.equal a b)
                  (Cfd.lhs c1)
              in
              if compatible then
                out :=
                  Diagnostic.make ~span:span2 ~clause:(Cfd.name c2) Diagnostic.E002
                    (Printf.sprintf
                       "%s and %s have compatible LHS patterns but \
                        contradictory constants for %s: %s vs %s"
                       label1 label2
                       (Schema.attribute schema (Cfd.rhs c2))
                       (Value.to_string v1) (Value.to_string v2))
                  :: !out
            | _ -> ())
        clauses)
    clauses;
  List.sort Diagnostic.compare !out

let prop_e002_reference =
  QCheck.Test.make ~count:300 ~name:"E002 equals the all-pairs reference"
    (QCheck.make ~print:Fun.id ruleset_gen) (fun text ->
      match Cfd_parser.parse_string_located text with
      | Error e -> QCheck.Test.fail_reportf "%a" Cfd_parser.pp_error e
      | Ok tabs ->
        let schema = Schema.make ~name:"r" [ "A"; "B"; "C"; "D" ] in
        let e002 =
          List.filter
            (fun d -> d.Diagnostic.code = Diagnostic.E002)
            (Lint.run ~errors_only:true ~schema tabs)
        in
        e002 = e002_reference schema tabs)

let suite =
  [
    Alcotest.test_case "clean file is clean" `Quick test_clean_file;
    Alcotest.test_case "E000 syntax error position" `Quick test_syntax_error_position;
    Alcotest.test_case "E001 unsatisfiable with minimal core" `Quick test_unsatisfiable;
    Alcotest.test_case "E002 conflicting constants" `Quick test_conflicting_constants;
    Alcotest.test_case "E003 unknown attribute" `Quick test_unknown_attribute;
    Alcotest.test_case "W001 redundant row" `Quick test_redundant_row;
    Alcotest.test_case "W002 subsumed row" `Quick test_subsumed_row;
    Alcotest.test_case "W003 trivial CFD" `Quick test_trivial_cfd;
    Alcotest.test_case "W004 cyclic interaction" `Quick test_cyclic_interaction;
    Alcotest.test_case "W005 duplicates" `Quick test_duplicates;
    Alcotest.test_case "text and json renderings" `Quick test_renderings;
    Alcotest.test_case "caret rendering" `Quick test_text_render_caret;
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "summary line" `Quick test_summary;
    QCheck_alcotest.to_alcotest prop_e002_reference;
  ]
