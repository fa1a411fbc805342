(** Minimal RFC-4180-style CSV reading and writing.

    Supports quoted fields containing commas, double quotes (escaped by
    doubling) and newlines, and both LF and CRLF line endings.  Empty cells
    load as {!Value.Null}; numeric-looking cells load as numbers (see
    {!Value.of_string}).

    Loading is hardened against hostile input: ragged rows, unterminated
    quotes, embedded NUL bytes and oversized fields all surface as a
    structured {!error} with a 1-based source position (the [_res]
    variants) — the raising variants wrap the same message in [Failure]
    for callers that predate them.  [load_string_res] never raises on any
    byte sequence (qcheck-fuzzed).

    Loading is one pass over the text: each row is typed and inserted as
    soon as it is parsed, and an unquoted cell is cut out of the text
    whole.  Errors keep a fixed precedence all the same.  The first parse
    error (unterminated quote, NUL byte, oversized field) is reported
    wherever it is, even after a bad header or a ragged row; failing
    that, an empty input; then a bad header; then the first ragged row. *)

type error = { line : int; col : int; message : string }
(** A loading failure at a 1-based source position.  For multi-line
    (quoted) fields the position is where the field started. *)

val error_to_string : error -> string
(** ["line L, column C: MESSAGE"]. *)

val parse_string_res :
  ?max_field_bytes:int -> string -> (string list list, error) result
(** Parse CSV text into rows of cells.  A trailing newline does not
    produce an empty row.  Fails on an unterminated quoted field, a NUL
    byte, or a field longer than [max_field_bytes] (default 64 MiB — a
    guard against quote-swallowed multi-gigabyte inputs). *)

val parse_string : string -> string list list
(** @raise Failure where {!parse_string_res} returns [Error]. *)

val escape_cell : string -> string
(** Quote a cell if it contains a comma, quote or newline. *)

val rows_to_string : string list list -> string

val load_string_res :
  ?name:string -> ?max_field_bytes:int -> string -> (Relation.t, error) result
(** Build a relation from CSV text whose first row is the header
    (attribute names).  Also fails on empty input, a bad header
    (empty/duplicate attribute names) and ragged rows — each with the
    line number of the offending row.  Never raises. *)

val load_string : ?name:string -> string -> Relation.t
(** @raise Failure where {!load_string_res} returns [Error]. *)

val load_file_res :
  ?name:string -> ?max_field_bytes:int -> string -> (Relation.t, error) result
(** {!load_string_res} over a file's bytes.  Declares the ["csv.load"]
    fault site.  @raise Sys_error if the file cannot be read. *)

val load_file : ?name:string -> string -> Relation.t

val save_string : Relation.t -> string
(** Render a relation as CSV with a header row.  Every float loads back
    as the same float: it is written as {!Value.to_string} renders it
    when that text reads back exactly, and otherwise with the fewest of
    15, 16 or 17 significant digits that does (or with one decimal, for
    an integral float that those would print as an int). *)

val save_file : Relation.t -> string -> unit
(** Crash-safe: writes via {!Dq_fault.Atomic_io.write_file} (temp file +
    fsync + rename), so an interrupted save never truncates or corrupts
    an existing file at [path]. *)
