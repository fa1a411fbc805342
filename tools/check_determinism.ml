(* Determinism lint: fail if library code iterates a hash table.

   Hashtbl.iter / Hashtbl.fold visit bindings in an order that depends on
   hashing history, so any engine decision routed through them can differ
   between runs, job counts, or OCaml versions.  The same holds for the
   iter and fold of every module made with Hashtbl.Make, such as
   Vkey.Table.  The repo's rule is that such iteration is confined to
   modules that either sort afterwards or feed commutative reductions,
   and everything else uses keyed lookups (find/find_opt/mem/replace) or
   arrays.  This checker walks a source tree twice: first it collects the
   name of every module bound to Hashtbl.Make or Hashtbl.MakeSeeded in any
   file ("module Table = Hashtbl.Make ..."), then it reports every
   Hashtbl.iter/Hashtbl.fold and every NAME.iter/NAME.fold of a collected
   NAME, qualified or not (Table.iter, Vkey.Table.iter), outside the
   audited allowlist, with file:line positions, exiting 1 if any is
   found.  A module alias of an instance (module T = Vkey.Table) is not
   followed.

   Run as:  check_determinism.exe LIB_DIR
   Wired into `dune runtest` via tools/dune, so a new unaudited call site
   fails the test suite (and CI) with an actionable message;
   test/cli/determinism.t runs it on a fixture tree. *)

(* Modules audited for order-insensitivity: each call site there sorts
   the collected bindings, folds a commutative operation (sums, maxima,
   set union), or iterates a table with at most one binding. *)
let allowlist =
  [
    "relation.ml";
    (* active-domain fold feeds a sort *)
    "metrics.ml";
    (* snapshot sorts by name; reset is per-binding *)
    "lint.ml";
    (* W004/W005 sites sort diagnostics afterwards *)
    "discovery.ml";
    (* candidate fold feeds a sort; the group walk counts and collects
       rows that are sorted afterwards *)
    "batch_repair.ml";
    (* audited per-site: sorted, a min scan, or offers that the
       queue's total tie-break makes order-free *)
  ]

let is_ident c =
  match c with
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* The line with its comments blanked out: a mention in prose (like the
   ones in this very file) is not a call site.  Strings are rare enough in
   library code that we do not bother lexing them.  Returns the comment
   depth at the end of the line too. *)
let code_of_line ~in_comment line =
  let n = String.length line in
  let code = Bytes.of_string line in
  let depth = ref in_comment in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && line.[!i] = '(' && line.[!i + 1] = '*' then begin
      incr depth;
      Bytes.fill code !i 2 ' ';
      i := !i + 2
    end
    else if !i + 1 < n && line.[!i] = '*' && line.[!i + 1] = ')' && !depth > 0
    then begin
      decr depth;
      Bytes.fill code !i 2 ' ';
      i := !i + 2
    end
    else begin
      if !depth > 0 then Bytes.set code !i ' ';
      incr i
    end
  done;
  (Bytes.to_string code, !depth)

(* (line number, code) for every line of the file. *)
let code_lines path =
  let ic = open_in path in
  let lines = ref [] and lineno = ref 0 and depth = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       let code, d = code_of_line ~in_comment:!depth line in
       depth := d;
       lines := (!lineno, code) :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

let starts_at s pat i =
  i >= 0
  && i + String.length pat <= String.length s
  && String.sub s i (String.length pat) = pat

let skip_spaces s i =
  let i = ref i in
  while !i < String.length s && (s.[!i] = ' ' || s.[!i] = '\t') do
    incr i
  done;
  !i

(* Positions where [pat] occurs in [s], with no identifier character
   just before it when [word] holds (a dot is fine, so the last component
   of a module path matches: "Table.iter" in "Vkey.Table.iter", but not
   in "Row_Table.iter"). *)
let occurrences ~word s pat =
  let hits = ref [] in
  for i = String.length s - String.length pat downto 0 do
    if starts_at s pat i && ((not word) || i = 0 || not (is_ident s.[i - 1]))
    then hits := i :: !hits
  done;
  !hits

(* NAME for every "module NAME = Hashtbl.Make..." in the code. *)
let instances_in code =
  List.filter_map
    (fun i ->
      let j = skip_spaces code (i + String.length "module") in
      let k = ref j in
      while !k < String.length code && is_ident code.[!k] do
        incr k
      done;
      let eq = skip_spaces code !k in
      if !k > j && eq < String.length code && code.[eq] = '=' then
        let rhs = skip_spaces code (eq + 1) in
        if starts_at code "Hashtbl.Make" rhs then
          Some (String.sub code j (!k - j))
        else None
      else None)
    (occurrences ~word:true code "module ")

(* The start of the dotted module path that runs into position [i], so
   a hit on "Table.iter" reports as written, e.g. "Vkey.Table.iter". *)
let path_start code i =
  let i = ref i in
  while !i > 0 && (is_ident code.[!i - 1] || code.[!i - 1] = '.') do
    decr i
  done;
  !i

(* [banned] pairs each pattern with whether it must start a word.
   Hashtbl's own match anywhere, the conservative choice; an instance's
   must start one, or "Table.iter" would flag "Row_Table.iter". *)
let hits_in ~banned (path, lines) =
  List.concat_map
    (fun (lineno, code) ->
      List.concat_map
        (fun (pat, word) ->
          List.map
            (fun i ->
              let start = path_start code i in
              let stop = i + String.length pat in
              (path, lineno, String.sub code start (stop - start)))
            (occurrences ~word code pat))
        banned)
    lines

let rec walk dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then walk path
         else if Filename.check_suffix entry ".ml" then [ path ]
         else [])

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "lib" in
  let files = List.map (fun path -> (path, code_lines path)) (walk root) in
  let instances =
    List.concat_map
      (fun (_, lines) ->
        List.concat_map (fun (_, code) -> instances_in code) lines)
      files
    |> List.sort_uniq compare
  in
  let banned =
    List.concat_map
      (fun (m, word) -> [ (m ^ ".iter", word); (m ^ ".fold", word) ])
      (("Hashtbl", false) :: List.map (fun m -> (m, true)) instances)
  in
  let checked =
    List.filter
      (fun (path, _) -> not (List.mem (Filename.basename path) allowlist))
      files
  in
  match List.concat_map (hits_in ~banned) checked with
  | [] -> ()
  | hits ->
    List.iter
      (fun (path, line, call) ->
        Printf.eprintf
          "%s:%d: %s iterates in hash order; sort the bindings or use keyed \
           lookups (see tools/check_determinism.ml for the audited \
           allowlist)\n"
          path line call)
      (List.sort compare hits);
    exit 1
