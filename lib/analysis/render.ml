module P = Dq_cfd.Cfd_parser

let pp_text ?path ?source ppf (d : Diagnostic.t) =
  (match (path, d.span) with
  | Some p, Some s -> Format.fprintf ppf "%s:%d:%d: " p s.P.line s.P.col_start
  | Some p, None -> Format.fprintf ppf "%s: " p
  | None, Some s -> Format.fprintf ppf "%d:%d: " s.P.line s.P.col_start
  | None, None -> ());
  Diagnostic.pp ppf d;
  match (source, d.span) with
  | Some text, Some s -> (
    let lines = String.split_on_char '\n' text in
    match List.nth_opt lines (s.P.line - 1) with
    | None -> ()
    | Some line ->
      let line =
        if String.length line > 0 && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      let width = max 1 (s.P.col_end - s.P.col_start) in
      let width = min width (max 1 (String.length line - s.P.col_start + 1)) in
      Format.fprintf ppf "@,%4d | %s@,     | %s%s" s.P.line line
        (String.make (s.P.col_start - 1) ' ')
        (String.make width '^'))
  | _ -> ()

let summary diags =
  let errors = List.length (List.filter Diagnostic.is_error diags) in
  let warnings = List.length diags - errors in
  let plural n = if n = 1 then "" else "s" in
  Printf.sprintf "%d error%s, %d warning%s" errors (plural errors) warnings
    (plural warnings)
