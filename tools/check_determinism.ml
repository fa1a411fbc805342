(* Determinism lint: fail if library code iterates a hash table.

   Hashtbl.iter / Hashtbl.fold visit bindings in an order that depends on
   hashing history, so any engine decision routed through them can differ
   between runs, job counts, or OCaml versions.  The repo's rule is that
   such iteration is confined to modules that either sort afterwards or
   feed commutative reductions, and everything else uses keyed lookups
   (find/find_opt/mem/replace) or arrays.  This checker walks a source
   tree and reports every Hashtbl.iter/Hashtbl.fold outside the audited
   allowlist, with file:line positions, exiting 1 if any is found.

   Run as:  check_determinism.exe LIB_DIR
   Wired into `dune runtest` via tools/dune, so a new unaudited call site
   fails the test suite (and CI) with an actionable message. *)

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
    (* candidate fold feeds a sort *)
    "batch_repair.ml";
    (* audited per-site: sorted, a min scan, or offers that the
       queue's total tie-break makes order-free *)
  ]

let banned = [ "Hashtbl.iter"; "Hashtbl.fold" ]

let contains_at line pat i =
  i + String.length pat <= String.length line
  && String.sub line i (String.length pat) = pat

(* Report a hit only outside comments; a mention in prose (like the ones
   in this very file) is not a call site.  Strings are rare enough in
   library code that we do not bother lexing them. *)
let scan_line ~in_comment line k =
  let n = String.length line in
  let depth = ref in_comment in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && line.[!i] = '(' && line.[!i + 1] = '*' then begin
      incr depth;
      i := !i + 2
    end
    else if !i + 1 < n && line.[!i] = '*' && line.[!i + 1] = ')' then begin
      if !depth > 0 then decr depth;
      i := !i + 2
    end
    else begin
      if !depth = 0 then
        List.iter (fun pat -> if contains_at line pat !i then k pat) banned;
      incr i
    end
  done;
  !depth

let scan_file path =
  let ic = open_in path in
  let hits = ref [] in
  let lineno = ref 0 in
  let comment_depth = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       comment_depth :=
         scan_line ~in_comment:!comment_depth line (fun pat ->
             hits := (path, !lineno, pat) :: !hits)
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !hits

let rec walk dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then walk path
         else if
           Filename.check_suffix entry ".ml"
           && not (List.mem entry allowlist)
         then scan_file path
         else [])

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "lib" in
  match walk root with
  | [] -> ()
  | hits ->
    List.iter
      (fun (path, line, pat) ->
        Printf.eprintf
          "%s:%d: %s iterates in hash order; sort the bindings or use keyed \
           lookups (see tools/check_determinism.ml for the audited \
           allowlist)\n"
          path line pat)
      hits;
    exit 1
