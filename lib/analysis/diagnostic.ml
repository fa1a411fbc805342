type severity = Error | Warning | Info

type code =
  | E000
  | E001
  | E002
  | E003
  | W001
  | W002
  | W003
  | W004
  | W005
  | A001
  | A002
  | A003

let all_codes =
  [ E000; E001; E002; E003; W001; W002; W003; W004; W005; A001; A002; A003 ]

let code_to_string = function
  | E000 -> "E000"
  | E001 -> "E001"
  | E002 -> "E002"
  | E003 -> "E003"
  | W001 -> "W001"
  | W002 -> "W002"
  | W003 -> "W003"
  | W004 -> "W004"
  | W005 -> "W005"
  | A001 -> "A001"
  | A002 -> "A002"
  | A003 -> "A003"

let code_of_string s =
  List.find_opt (fun c -> String.equal (code_to_string c) s) all_codes

let severity_of_code = function
  | E000 | E001 | E002 | E003 -> Error
  | W001 | W002 | W003 | W004 | W005 | A001 | A002 -> Warning
  | A003 -> Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let describe = function
  | E000 -> "syntax error: the ruleset does not parse"
  | E001 -> "unsatisfiable ruleset: no non-empty instance can satisfy it"
  | E002 -> "conflicting constant patterns: compatible LHS, contradictory RHS"
  | E003 -> "unknown attribute or malformed clause for the schema"
  | W001 -> "redundant pattern row: implied by the rest of the ruleset"
  | W002 -> "pattern row subsumed by a more general row of the same tableau"
  | W003 -> "trivial CFD: the RHS attribute already appears in the LHS"
  | W004 -> "cyclic clause interaction: repairs may oscillate"
  | W005 -> "duplicate CFD name or duplicate pattern row"
  | A001 -> "attribute dependency cycle: the repair fixpoint may not terminate"
  | A002 -> "oscillation pair: two clauses feed each other's LHS"
  | A003 -> "hot clause: high estimated violation density on the instance"

let explain = function
  | E000 ->
    "E000 — syntax error\n\n\
     The ruleset file does not parse, so no further analysis runs.  The\n\
     diagnostic carries the parser's position and message.\n\n\
     Example (missing '->'):\n\n\
    \  cfd bad [zip] [CT]\n\n\
     Fix the syntax; 'cfdclean lint FILE' re-checks without needing data."
  | E001 ->
    "E001 — unsatisfiable ruleset\n\n\
     Taken together the pattern rows admit no non-empty instance: every\n\
     tuple is forced into a contradiction.  Detection follows the\n\
     satisfiability check of Section 2 of the paper.\n\n\
     Example:\n\n\
    \  cfd a [AC] -> [CT] (_ || NYC)\n\
    \  cfd b [AC] -> [CT] (_ || PHI)\n\n\
     Any tuple at all must have CT = NYC and CT = PHI at once."
  | E002 ->
    "E002 — conflicting constant patterns\n\n\
     Two rows have compatible LHS patterns but contradictory RHS\n\
     constants, so some tuples can satisfy neither.\n\n\
     Example:\n\n\
    \  cfd a [zip] -> [CT] (10012 || NYC)\n\
    \  cfd b [zip] -> [CT] (10012 || PHI)\n\n\
     A tuple with zip = 10012 violates one of the two whatever its CT."
  | E003 ->
    "E003 — unknown attribute / malformed clause\n\n\
     A clause names an attribute the schema does not have, or its pattern\n\
     row arity disagrees with its attribute lists.\n\n\
     Example (schema has no 'zipp'):\n\n\
    \  cfd a [zipp] -> [CT]\n\n\
     Check spelling against the CSV header or declared schema."
  | W001 ->
    "W001 — redundant pattern row\n\n\
     The row is implied by the rest of the ruleset: removing it changes\n\
     nothing.  Redundant rows slow detection and repair for no benefit.\n\n\
     Example:\n\n\
    \  cfd a [zip] -> [CT] (10012 || NYC)\n\
    \  cfd b [zip] -> [CT] (_ || _)        # implied: an FD row already\n\
    \                                      # follows from row-level logic"
  | W002 ->
    "W002 — subsumed pattern row\n\n\
     A row of the same tableau is strictly more general (wildcards where\n\
     this row has constants, equal elsewhere) with the same RHS, so this\n\
     row never fires on its own.\n\n\
     Example:\n\n\
    \  (_ || NYC)\n\
    \  (10012 || NYC)   # subsumed by the row above"
  | W003 ->
    "W003 — trivial CFD\n\n\
     The RHS attribute already appears in the LHS, so the clause can only\n\
     restate what the LHS match fixed.  Usually a typo in the attribute\n\
     lists.\n\n\
     Example:\n\n\
    \  cfd a [CT, zip] -> [CT]"
  | W004 ->
    "W004 — cyclic clause interaction\n\n\
     Within one tableau pair, clause A's RHS attribute feeds clause B's\n\
     LHS and vice versa — Example 4.1's oscillation hazard: naive\n\
     rule-at-a-time repair can flip the two attributes forever.\n\
     BATCHREPAIR still terminates (Theorem 4.2), but the result can\n\
     depend on application order.\n\n\
     Example:\n\n\
    \  cfd phi2 [zip] -> [CT]\n\
    \  cfd phi4 [CT, STR] -> [zip]\n\n\
     'cfdclean analyze' generalizes this check to whole-Σ certificates\n\
     (A001)."
  | W005 ->
    "W005 — duplicate name or row\n\n\
     Two tableaus share a name, or one tableau repeats a pattern row.\n\
     Duplicates make diagnostics ambiguous and waste work.\n\n\
     Example:\n\n\
    \  cfd a [zip] -> [CT]\n\
    \  cfd a [AC] -> [ST]    # same name 'a'"
  | A001 ->
    "A001 — attribute dependency cycle\n\n\
     The attribute dependency graph of Σ (edge B → A for every clause\n\
     [X → A] with B ∈ X) has a strongly connected component of size > 1.\n\
     The diagnostic prints a closed-walk certificate naming the inducing\n\
     clauses, e.g.\n\n\
    \  CT --phi4--> zip --phi2--> CT\n\n\
     Naive fixpoint repair over such a ruleset may not terminate;\n\
     'detect/repair/sample --analyze-gate' refuse it.  Break the cycle by\n\
     dropping or reorienting one of the named clauses."
  | A002 ->
    "A002 — oscillation pair\n\n\
     Two specific clauses feed each other: A's RHS attribute is in B's\n\
     LHS and vice versa, with compatible pattern entries, so one repair\n\
     can re-trigger the other.  Severity: high when both RHS patterns are\n\
     wildcards (unbounded ping-pong), medium when exactly one is a\n\
     constant, low when both are constants (the loop closes after at most\n\
     one exchange).\n\n\
     Example (high):\n\n\
    \  cfd a [x] -> [y]\n\
    \  cfd b [y] -> [x]"
  | A003 ->
    "A003 — hot clause\n\n\
     With '--data FILE', 'cfdclean analyze' estimates per-clause costs\n\
     from a bounded sample (first 2000 tuples by default).  A clause is\n\
     flagged hot when its estimated violation density — the fraction of\n\
     sampled tuples involved in a violation — reaches 1%.  Hot clauses\n\
     dominate repair time; consider cleaning their attributes first or\n\
     tightening their patterns."

type t = {
  code : code;
  message : string;
  span : Dq_cfd.Cfd_parser.span option;
  clause : string option;
}

let make ?span ?clause code message = { code; message; span; clause }

let severity t = severity_of_code t.code

let is_error t = severity t = Error

let code_index c =
  let rec find i = function
    | [] -> assert false
    | c' :: rest -> if c = c' then i else find (i + 1) rest
  in
  find 0 all_codes

let compare a b =
  let pos d =
    match d.span with
    | None -> (0, 0)
    | Some s -> (s.Dq_cfd.Cfd_parser.line, s.Dq_cfd.Cfd_parser.col_start)
  in
  let c = Stdlib.compare (pos a) (pos b) in
  if c <> 0 then c
  else
    let c = Int.compare (code_index a.code) (code_index b.code) in
    if c <> 0 then c else String.compare a.message b.message

let pp ppf t =
  Format.fprintf ppf "%s[%s]: %s"
    (severity_to_string (severity t))
    (code_to_string t.code) t.message

let to_json d =
  let module Json = Dq_obs.Json in
  let base =
    [
      ("code", Json.String (code_to_string d.code));
      ("severity", Json.String (severity_to_string (severity d)));
      ("message", Json.String d.message);
    ]
  in
  let clause =
    match d.clause with Some c -> [ ("clause", Json.String c) ] | None -> []
  in
  let span =
    match d.span with
    | Some s ->
      [
        ("line", Json.Int s.Dq_cfd.Cfd_parser.line);
        ("col", Json.Int s.Dq_cfd.Cfd_parser.col_start);
        ("end_col", Json.Int s.Dq_cfd.Cfd_parser.col_end);
      ]
    | None -> []
  in
  Json.Obj (base @ clause @ span)
