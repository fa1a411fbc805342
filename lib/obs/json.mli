(** A minimal JSON value type with a deterministic printer.

    Every machine-readable artefact of the project — the CLI's
    [--format json] envelope, [--metrics] dumps, engine reports, the bench
    harness's [BENCH_*.json] files — is built from this one type, so all
    of them share the same escaping, float rendering and (stable) field
    order.  Objects print their fields {e in construction order}: callers
    are responsible for building them in a canonical order, which is what
    makes report output byte-comparable across runs and job counts. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val of_value : Dq_relation.Value.t -> t
(** [Value.Null] maps to {!Null}; constants keep their type. *)

val escape : string -> string
(** JSON string-body escaping (quotes, backslashes, control characters). *)

val to_string : ?minify:bool -> t -> string
(** Render with two-space indentation (or none when [minify]), ending in a
    newline in the pretty form.  Non-finite floats render as [null];
    finite floats use ["%.12g"], a fixed-precision rendering that is a
    pure function of the value. *)

val equal : t -> t -> bool
(** Structural equality (field order significant — two objects with the
    same fields in different orders are different documents here). *)

val member : string -> t -> t option
(** First field of that name, when the value is an object. *)

(** {1 Decoding}

    Checkpoints, serve session files and journals, and serve request
    bodies are all read back through {!parse} and the readers below.
    A field reader's error names the field: [missing field "x"], or
    [field "x": expected an integer] when it holds another kind of
    value. *)

val parse : string -> (t, string) result
(** Parse one JSON document (the inverse of {!to_string}).  Numbers
    without a fraction or exponent load as {!Int}, everything else as
    {!Float}; [\u] escapes decode to UTF-8.  Errors carry a byte
    offset. *)

val field : string -> t -> (t, string) result
(** The field's value, whatever its kind. *)

val int_field : string -> t -> (int, string) result

val bool_field : string -> t -> (bool, string) result

val string_field : string -> t -> (string, string) result

val list_field : string -> t -> (t list, string) result

val map_result : ('a -> ('b, 'e) result) -> 'a list -> ('b list, 'e) result
(** [List.map] that stops at the first [Error]. *)

val hex_float : float -> t
(** A {!String} holding the float as a C99 [%h] literal.  {!to_string}
    renders {!Float} with ["%.12g"], which is lossy; the persisted
    formats store floats this way so they read back bit for bit. *)

val hex_float_of : t -> (float, string) result
(** The inverse of {!hex_float}. *)
