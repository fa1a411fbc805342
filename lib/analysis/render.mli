(** Text presentation of lint diagnostics: compiler-style lines with a
    source excerpt and caret.  Their JSON form is {!Diagnostic.to_json},
    inside the CLI's [--format json] envelope. *)

val pp_text :
  ?path:string -> ?source:string -> Format.formatter -> Diagnostic.t -> unit
(** ["FILE:LINE:COL: severity[CODE]: message"], followed — when [source] (the
    ruleset text) is given and the diagnostic has a span — by the offending
    line and a caret underlining the span:
    {v
    orders.cfd:4:7: error[E003]: unknown attribute "AC2" (not in schema order)
       4 | phi1: [AC2, PN] -> [CT]
         |        ^^^
    v} *)

val summary : Diagnostic.t list -> string
(** E.g. ["2 errors, 1 warning"]. *)
