type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let of_value (v : Dq_relation.Value.t) =
  match v with
  | Dq_relation.Value.Null -> Null
  | Dq_relation.Value.Int i -> Int i
  | Dq_relation.Value.Float f -> Float f
  | Dq_relation.Value.String s -> String s

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* %.12g is a pure function of the float, so renderings are stable across
   runs; JSON has no literal for non-finite numbers, so those become null. *)
let float_repr f =
  if not (Float.is_finite f) then "null" else Printf.sprintf "%.12g" f

let to_string ?(minify = false) json =
  let b = Buffer.create 1024 in
  let pad n = if not minify then Buffer.add_string b (String.make n ' ') in
  let nl () = if not minify then Buffer.add_char b '\n' in
  let sep () = Buffer.add_string b (if minify then ":" else ": ") in
  let rec go indent = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | String s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | List [] -> Buffer.add_string b "[]"
    | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          nl ();
          pad (indent + 2);
          go (indent + 2) item)
        items;
      nl ();
      pad indent;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          nl ();
          pad (indent + 2);
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_char b '"';
          sep ();
          go (indent + 2) v)
        fields;
      nl ();
      pad indent;
      Buffer.add_char b '}'
  in
  go 0 json;
  nl ();
  Buffer.contents b

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | String x, String y -> String.equal x y
  | List x, List y -> List.equal equal x y
  | Obj x, Obj y ->
    List.equal (fun (k, v) (k', v') -> String.equal k k' && equal v v') x y
  | _ -> false

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

(* ---- parsing ---------------------------------------------------------- *)

exception Bad of string * int

let add_utf8 b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Bad (msg, !pos)) in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else error (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else error "invalid literal"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
          incr pos;
          Buffer.contents b
        | '\\' ->
          incr pos;
          if !pos >= n then error "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'; incr pos
          | '\\' -> Buffer.add_char b '\\'; incr pos
          | '/' -> Buffer.add_char b '/'; incr pos
          | 'b' -> Buffer.add_char b '\b'; incr pos
          | 'f' -> Buffer.add_char b '\012'; incr pos
          | 'n' -> Buffer.add_char b '\n'; incr pos
          | 'r' -> Buffer.add_char b '\r'; incr pos
          | 't' -> Buffer.add_char b '\t'; incr pos
          | 'u' ->
            if !pos + 4 >= n then error "truncated \\u escape";
            let code =
              match int_of_string ("0x" ^ String.sub s (!pos + 1) 4) with
              | code -> code
              | exception _ -> error "bad \\u escape"
            in
            add_utf8 b code;
            pos := !pos + 5
          | _ -> error "unknown escape");
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let continues () =
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' -> true
      | '.' | 'e' | 'E' ->
        is_float := true;
        true
      | _ -> false
    in
    while continues () do
      incr pos
    done;
    let body = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt body with
      | Some f -> Float f
      | None -> error "malformed number"
    else
      match int_of_string_opt body with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt body with
        | Some f -> Float f
        | None -> error "malformed number")
  in
  (* Comma-separated [item]s until [close]; the opening bracket is already
     consumed. *)
  let rec elements close item acc =
    skip_ws ();
    if !pos >= n then error "unterminated container"
    else if s.[!pos] = close then begin
      incr pos;
      List.rev acc
    end
    else begin
      let acc = item () :: acc in
      skip_ws ();
      if !pos < n && s.[!pos] = ',' then begin
        incr pos;
        skip_ws ();
        if !pos < n && s.[!pos] = close then error "trailing comma";
        elements close item acc
      end
      else if !pos < n && s.[!pos] = close then begin
        incr pos;
        List.rev acc
      end
      else error "expected ',' or closing bracket"
    end
  in
  let rec value () =
    skip_ws ();
    if !pos >= n then error "unexpected end of input"
    else
      match s.[!pos] with
      | 'n' -> literal "null" Null
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | '"' -> String (parse_string ())
      | '-' | '0' .. '9' -> parse_number ()
      | '[' ->
        incr pos;
        List (elements ']' value [])
      | '{' ->
        incr pos;
        Obj
          (elements '}'
             (fun () ->
               skip_ws ();
               let key = parse_string () in
               skip_ws ();
               expect ':';
               let v = value () in
               (key, v))
             [])
      | _ -> error "unexpected character"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then error "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (msg, at) -> Error (Printf.sprintf "%s at offset %d" msg at)

(* ---- decoding --------------------------------------------------------- *)

let field name json =
  match member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let typed what read name json =
  Result.bind (field name json) (fun v ->
      match read v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S: expected %s" name what))

let int_field = typed "an integer" (function Int i -> Some i | _ -> None)

let bool_field = typed "a boolean" (function Bool b -> Some b | _ -> None)

let string_field = typed "a string" (function String s -> Some s | _ -> None)

let list_field = typed "a list" (function List l -> Some l | _ -> None)

let map_result f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
      match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] l

let hex_float f = String (Printf.sprintf "%h" f)

let hex_float_of = function
  | String s -> (
    match float_of_string_opt s with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "bad float literal %S" s))
  | _ -> Error "expected a float literal (a string)"
