type error = { line : int; col : int; message : string }

let error_to_string e =
  Printf.sprintf "line %d, column %d: %s" e.line e.col e.message

exception Csv_error of error

(* A guard against hostile input: a single multi-gigabyte field (an
   unterminated quote swallowing a huge file, say) fails fast instead of
   buffering without bound. *)
let default_max_field_bytes = 64 * 1024 * 1024

(* The first byte at or after [i] that can end an unquoted run of bytes: a
   delimiter, a quote or NUL. *)
let rec skip_plain text n i =
  if i >= n then i
  else
    match String.unsafe_get text i with
    | ',' | '\n' | '\r' | '"' | '\000' -> i
    | _ -> skip_plain text n (i + 1)

(* One pass over [text]: [cell s] for each cell in order and [row line]
   after each row's last cell, [line] being where the row starts.  A cell
   of plain bytes running to a delimiter is taken with one [String.sub];
   a cell holding a quote or a lone CR goes byte by byte through [buf].
   The line of the byte being read is [!line] and its column is its
   offset from [!line_start], the first byte of its line.  Raises
   [Csv_error] at the first malformed byte. *)
let scan ?(max_field_bytes = default_max_field_bytes) text ~cell ~row =
  let n = String.length text in
  let buf = Buffer.create 32 in
  let line = ref 1 and line_start = ref 0 in
  let row_line = ref 1 and row_open = ref false in
  let cell_line = ref 1 and cell_col = ref 1 in
  let error l c message = raise (Csv_error { line = l; col = c; message }) in
  let col i = i - !line_start + 1 in
  let newline next =
    incr line;
    line_start := next
  in
  let mark_cell i =
    cell_line := !line;
    cell_col := col i
  in
  let too_long () =
    error !cell_line !cell_col
      (Printf.sprintf "field longer than %d bytes" max_field_bytes)
  in
  let add c =
    if Buffer.length buf >= max_field_bytes then too_long ();
    Buffer.add_char buf c
  in
  let take () =
    let s = Buffer.contents buf in
    Buffer.clear buf;
    s
  in
  let ends_cell i =
    i >= n
    ||
    match String.unsafe_get text i with
    | ',' | '\n' -> true
    | '\r' -> i + 1 < n && String.unsafe_get text (i + 1) = '\n'
    | _ -> false
  in
  (* A cell starts at [i] with nothing buffered. *)
  let rec start i =
    let j = skip_plain text n i in
    if j > i && ends_cell j then begin
      if j - i > max_field_bytes then begin
        mark_cell i;
        too_long ()
      end;
      finish (String.sub text i (j - i)) j
    end
    else plain i
  (* The cell [s] ends at [i]: the end of the text, a comma, or a row's
     LF or CRLF. *)
  and finish s i =
    cell s;
    row_open := true;
    if i >= n then row !row_line
    else if String.unsafe_get text i = ',' then start (i + 1)
    else begin
      let next = if String.unsafe_get text i = '\n' then i + 1 else i + 2 in
      row !row_line;
      row_open := false;
      newline next;
      row_line := !line;
      start next
    end
  and plain i =
    if i >= n then begin
      if !row_open || Buffer.length buf > 0 then finish (take ()) i
    end
    else
      match String.unsafe_get text i with
      | '\000' -> error !line (col i) "NUL byte in input"
      | _ when ends_cell i -> finish (take ()) i
      | '"' when Buffer.length buf = 0 ->
        mark_cell i;
        quoted (i + 1)
      | c ->
        if Buffer.length buf = 0 then mark_cell i;
        add c;
        plain (i + 1)
  and quoted i =
    if i >= n then error !cell_line !cell_col "unterminated quoted field"
    else
      match String.unsafe_get text i with
      | '\000' -> error !line (col i) "NUL byte in input"
      | '"' when i + 1 < n && String.unsafe_get text (i + 1) = '"' ->
        add '"';
        quoted (i + 2)
      | '"' -> plain (i + 1)
      | c ->
        if c = '\n' then newline (i + 1);
        add c;
        quoted (i + 1)
  in
  start 0

let parse_string_res ?max_field_bytes text =
  let rows = ref [] and cells = ref [] in
  let cell s = cells := s :: !cells in
  let row _ =
    rows := List.rev !cells :: !rows;
    cells := []
  in
  match scan ?max_field_bytes text ~cell ~row with
  | () -> Ok (List.rev !rows)
  | exception Csv_error e -> Error e

let parse_string text =
  match parse_string_res text with
  | Ok rows -> rows
  | Error e -> failwith ("Csv.parse_string: " ^ error_to_string e)

let needs_quoting s =
  String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s

let escape_cell s =
  if needs_quoting s then begin
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end
  else s

let rows_to_string rows =
  let b = Buffer.create 1024 in
  List.iter
    (fun row ->
      Buffer.add_string b (String.concat "," (List.map escape_cell row));
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b

(* What the loader does with the next row. *)
type loading =
  | Header of string list (* the header's cells so far, reversed *)
  | Rows of Relation.t * Value.t array (* the row being read *)
  | Failed of error (* a bad header or ragged row; parsing goes on *)

(* The whole text is parsed before the first header or row error is
   reported, so a parse error anywhere takes precedence over it. *)
let load_string_res ?(name = "R") ?max_field_bytes text =
  let state = ref (Header []) and cells = ref 0 in
  let cell s =
    match !state with
    | Header h -> state := Header (s :: h)
    | Rows (_, values) ->
      if !cells < Array.length values then values.(!cells) <- Value.of_string s;
      incr cells
    | Failed _ -> ()
  in
  let row line =
    (match !state with
    | Header h -> (
      match Schema.make ~name (List.rev h) with
      | schema ->
        state :=
          Rows
            (Relation.create schema, Array.make (Schema.arity schema) Value.null)
      | exception Invalid_argument msg ->
        state := Failed { line; col = 1; message = "bad header: " ^ msg })
    | Rows (rel, values) ->
      let arity = Array.length values in
      if !cells <> arity then
        state :=
          Failed
            {
              line;
              col = 1;
              message =
                Printf.sprintf "row has %d cells, expected %d" !cells arity;
            }
      else ignore (Relation.insert rel values)
    | Failed _ -> ());
    cells := 0
  in
  match scan ?max_field_bytes text ~cell ~row with
  | exception Csv_error e -> Error e
  | () -> (
    match !state with
    | Header _ ->
      Error { line = 1; col = 1; message = "empty input: expected a header row" }
    | Rows (rel, _) -> Ok rel
    | Failed e -> Error e)

let load_string ?name text =
  match load_string_res ?name text with
  | Ok rel -> rel
  | Error e -> failwith ("Csv.load_string: " ^ error_to_string e)

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let default_name path = Filename.remove_extension (Filename.basename path)

let load_file_res ?name ?max_field_bytes path =
  let name = match name with Some n -> n | None -> default_name path in
  Dq_fault.Fault.hit "csv.load";
  load_string_res ~name ?max_field_bytes (read_whole_file path)

let load_file ?name path =
  let name = match name with Some n -> n | None -> default_name path in
  Dq_fault.Fault.hit "csv.load";
  load_string ~name (read_whole_file path)

(* [Value.to_string] keeps six significant digits of a float.  A float
   cell keeps that text when it reads back as the same float, and
   otherwise takes the shortest of 15, 16 and 17 digits that does.  An
   integral float in [1e15, 1e17) with more than 15 digits prints as an
   int at all three, so it is written with one decimal instead. *)
let float_cell f =
  let reads_back s =
    match Value.of_string s with
    | Value.Float g ->
      Int64.equal (Int64.bits_of_float g) (Int64.bits_of_float f)
      || (Float.is_nan g && Float.is_nan f)
    | Value.Null | Value.Int _ | Value.String _ -> false
  in
  let short = Value.to_string (Value.Float f) in
  if reads_back short then short
  else
    match
      List.find_opt reads_back
        (List.map (fun p -> Printf.sprintf "%.*g" p f) [ 15; 16; 17 ])
    with
    | Some s -> s
    | None -> Printf.sprintf "%.1f" f

let cell_to_string = function
  | Value.Float f -> float_cell f
  | v -> Value.to_string v

let save_string rel =
  let schema = Relation.schema rel in
  let header = Array.to_list (Schema.attributes schema) in
  let rows =
    Relation.fold
      (fun acc t ->
        let cells =
          List.init (Tuple.arity t) (fun i -> cell_to_string (Tuple.get t i))
        in
        cells :: acc)
      [] rel
  in
  rows_to_string (header :: List.rev rows)

let save_file rel path = Dq_fault.Atomic_io.write_file path (save_string rel)
