open Dq_relation

type error = { line : int; col : int; message : string }

let pp_error ppf e =
  Format.fprintf ppf "line %d, column %d: %s" e.line e.col e.message

exception Parse_error of error

type span = { line : int; col_start : int; col_end : int }

let join_spans a b =
  if a.line = b.line && b.col_end > a.col_end then { a with col_end = b.col_end }
  else a

module Located = struct
  type row = { row : Cfd.Tableau.row; span : span }

  type tableau = {
    tab : Cfd.Tableau.t;
    name_span : span;
    lhs_attr_spans : span list;
    rhs_attr_spans : span list;
    row_spans : span list;
  }

  let strip t = t.tab

  let strip_all ts = List.map strip ts
end

let fail_span span fmt =
  Format.kasprintf
    (fun message ->
      raise (Parse_error { line = span.line; col = span.col_start; message }))
    fmt

(* Lexer ------------------------------------------------------------- *)

type token =
  | Word of string (* bare word: attribute name, CFD name or value *)
  | Quoted of string
  | Lbracket
  | Rbracket
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Comma
  | Colon
  | Arrow (* -> *)
  | Bars (* || *)

let token_name = function
  | Word w -> Printf.sprintf "%S" w
  | Quoted q -> Printf.sprintf "\"%s\"" q
  | Lbracket -> "'['"
  | Rbracket -> "']'"
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Lbrace -> "'{'"
  | Rbrace -> "'}'"
  | Comma -> "','"
  | Colon -> "':'"
  | Arrow -> "'->'"
  | Bars -> "'||'"

let is_bare_char c =
  match c with
  | '[' | ']' | '(' | ')' | '{' | '}' | ',' | ':' | '#' | '"' | '|' -> false
  | c when c = ' ' || c = '\t' || c = '\n' || c = '\r' -> false
  | _ -> true

let tokenize text =
  let n = String.length text in
  let tokens = Vec.create () in
  let line = ref 1 in
  let bol = ref 0 in
  let col i = i - !bol + 1 in
  let push t ~from ~until =
    Vec.push tokens (t, { line = !line; col_start = col from; col_end = col until })
  in
  let fail_at i fmt =
    Format.kasprintf
      (fun message -> raise (Parse_error { line = !line; col = col i; message }))
      fmt
  in
  let rec skip_comment i =
    if i >= n || text.[i] = '\n' then i else skip_comment (i + 1)
  in
  let rec lex i =
    if i >= n then ()
    else
      match text.[i] with
      | '\n' ->
        incr line;
        bol := i + 1;
        lex (i + 1)
      | ' ' | '\t' | '\r' -> lex (i + 1)
      | '#' -> lex (skip_comment i)
      | '[' -> push Lbracket ~from:i ~until:(i + 1); lex (i + 1)
      | ']' -> push Rbracket ~from:i ~until:(i + 1); lex (i + 1)
      | '(' -> push Lparen ~from:i ~until:(i + 1); lex (i + 1)
      | ')' -> push Rparen ~from:i ~until:(i + 1); lex (i + 1)
      | '{' -> push Lbrace ~from:i ~until:(i + 1); lex (i + 1)
      | '}' -> push Rbrace ~from:i ~until:(i + 1); lex (i + 1)
      | ',' -> push Comma ~from:i ~until:(i + 1); lex (i + 1)
      | ':' -> push Colon ~from:i ~until:(i + 1); lex (i + 1)
      | '|' ->
        if i + 1 < n && text.[i + 1] = '|' then begin
          push Bars ~from:i ~until:(i + 2);
          lex (i + 2)
        end
        else fail_at i "expected '||' (single '|' is not a token)"
      | '"' ->
        let start_line = !line and start_col = col i in
        let b = Buffer.create 16 in
        let rec quoted j =
          if j >= n then
            raise
              (Parse_error
                 {
                   line = start_line;
                   col = start_col;
                   message = "unterminated quoted value";
                 })
          else if text.[j] = '"' then begin
            (* A quoted value spanning lines keeps only its opening position. *)
            let span =
              if !line = start_line then
                { line = start_line; col_start = start_col; col_end = col (j + 1) }
              else
                { line = start_line; col_start = start_col; col_end = start_col + 1 }
            in
            Vec.push tokens (Quoted (Buffer.contents b), span);
            lex (j + 1)
          end
          else begin
            if text.[j] = '\n' then begin
              incr line;
              bol := j + 1
            end;
            Buffer.add_char b text.[j];
            quoted (j + 1)
          end
        in
        quoted (i + 1)
      | c when is_bare_char c ->
        (* '-' starts a bare word unless it begins '->'. *)
        let continue_bare k =
          k < n && is_bare_char text.[k] && not (text.[k] = '-' && k + 1 < n && text.[k + 1] = '>')
        in
        if c = '-' && i + 1 < n && text.[i + 1] = '>' then begin
          push Arrow ~from:i ~until:(i + 2);
          lex (i + 2)
        end
        else begin
          let j = ref i in
          let b = Buffer.create 16 in
          while continue_bare !j do
            Buffer.add_char b text.[!j];
            incr j
          done;
          push (Word (Buffer.contents b)) ~from:i ~until:!j;
          lex !j
        end
      | c -> fail_at i "unexpected character %C" c
  in
  lex 0;
  Vec.to_list tokens

(* Parser ------------------------------------------------------------ *)

type state = { mutable toks : (token * span) list; mutable last_span : span }

let fail st fmt = fail_span st.last_span fmt

let peek st = match st.toks with [] -> None | (t, _) :: _ -> Some t

let next st =
  match st.toks with
  | [] -> fail st "unexpected end of input"
  | (t, span) :: rest ->
    st.toks <- rest;
    st.last_span <- span;
    t

let expect st want =
  let t = next st in
  if t <> want then
    fail st "expected %s but found %s" (token_name want) (token_name t)

let parse_word st ~what =
  match next st with
  | Word w -> w
  | Quoted q -> q
  | t -> fail st "expected %s but found %s" what (token_name t)

(* Each attribute comes back with the span of its own token, so a lint pass
   can point at exactly the offending name. *)
let parse_attr_list st =
  expect st Lbracket;
  let rec more acc =
    let a = parse_word st ~what:"an attribute name" in
    let aspan = st.last_span in
    match next st with
    | Comma -> more ((a, aspan) :: acc)
    | Rbracket -> List.rev ((a, aspan) :: acc)
    | t -> fail st "expected ',' or ']' but found %s" (token_name t)
  in
  more []

let parse_pattern st =
  match next st with
  | Word "_" -> Pattern.Wild
  | Word w -> Pattern.const (Value.of_string w)
  | Quoted q -> Pattern.const (Value.string q)
  | t -> fail st "expected a pattern but found %s" (token_name t)

let parse_row st ~n_lhs ~n_rhs =
  expect st Lparen;
  let open_span = st.last_span in
  let rec pats acc stop =
    let p = parse_pattern st in
    match next st with
    | Comma -> pats (p :: acc) stop
    | t when t = stop -> List.rev (p :: acc)
    | t ->
      fail st "expected ',' or %s but found %s" (token_name stop) (token_name t)
  in
  let lhs = pats [] Bars in
  let rhs = pats [] Rparen in
  let span = join_spans open_span st.last_span in
  if List.length lhs <> n_lhs then
    fail_span span "pattern row has %d LHS entries, expected %d"
      (List.length lhs) n_lhs;
  if List.length rhs <> n_rhs then
    fail_span span "pattern row has %d RHS entries, expected %d"
      (List.length rhs) n_rhs;
  (match peek st with Some Comma -> ignore (next st) | _ -> ());
  Located.{ row = Cfd.Tableau.{ lhs; rhs }; span }

let parse_cfd st =
  let name = parse_word st ~what:"a CFD name" in
  let name_span = st.last_span in
  expect st Colon;
  let lhs = parse_attr_list st in
  expect st Arrow;
  let rhs = parse_attr_list st in
  let rows =
    match peek st with
    | Some Lbrace ->
      ignore (next st);
      let rec more acc =
        match peek st with
        | Some Rbrace ->
          ignore (next st);
          List.rev acc
        | Some _ ->
          more
            (parse_row st ~n_lhs:(List.length lhs) ~n_rhs:(List.length rhs)
            :: acc)
        | None -> fail st "unterminated '{' block"
      in
      more []
    | _ -> []
  in
  Located.
    {
      tab =
        Cfd.Tableau.
          {
            name;
            lhs_attrs = List.map fst lhs;
            rhs_attrs = List.map fst rhs;
            rows = List.map (fun r -> r.row) rows;
          };
      name_span;
      lhs_attr_spans = List.map snd lhs;
      rhs_attr_spans = List.map snd rhs;
      row_spans = List.map (fun r -> r.span) rows;
    }

let parse_string_located text =
  match
    let st =
      { toks = tokenize text; last_span = { line = 1; col_start = 1; col_end = 1 } }
    in
    let rec all acc =
      match peek st with None -> List.rev acc | Some _ -> all (parse_cfd st :: acc)
    in
    all []
  with
  | tabs -> Ok tabs
  | exception Parse_error e -> Error e

let parse_string text =
  Result.map Located.strip_all (parse_string_located text)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_file_located path = parse_string_located (read_file path)

let parse_file path = parse_string (read_file path)

let resolve schema tabs =
  Cfd.number (List.concat_map (Cfd.normalize schema) tabs)

let quote_if_needed s =
  let bare =
    String.length s > 0
    && String.for_all is_bare_char s
    && (not (String.equal s "_"))
    && not (String.length s >= 2 && s.[0] = '-' && s.[1] = '>')
  in
  if bare then s else "\"" ^ s ^ "\""

let pattern_to_source = function
  | Pattern.Wild -> "_"
  | Pattern.Const v -> quote_if_needed (Value.to_string v)

let to_string tabs =
  let b = Buffer.create 1024 in
  List.iter
    (fun (tab : Cfd.Tableau.t) ->
      Buffer.add_string b
        (Printf.sprintf "%s: [%s] -> [%s]" tab.name
           (String.concat ", " tab.lhs_attrs)
           (String.concat ", " tab.rhs_attrs));
      (match tab.rows with
      | [] -> ()
      | rows ->
        Buffer.add_string b " {\n";
        List.iter
          (fun (row : Cfd.Tableau.row) ->
            let pats ps = String.concat ", " (List.map pattern_to_source ps) in
            Buffer.add_string b
              (Printf.sprintf "  (%s || %s)\n" (pats row.lhs) (pats row.rhs)))
          rows;
        Buffer.add_string b "}");
      Buffer.add_char b '\n')
    tabs;
  Buffer.contents b
