(** Diagnostics for the static analysis of CFD rulesets.

    Modeled on compiler diagnostics: every finding carries a stable code
    ([E0xx] for errors, [W0xx] for lint warnings, [A0xx] for whole-Σ
    interaction findings), a severity, a human-readable message and, when
    known, the source span of the offending construct and the name of the
    CFD it belongs to.  Codes are stable so CI pipelines can match on them
    ({!to_json} emits them verbatim). *)

type severity = Error | Warning | Info

type code =
  | E000  (** syntax error (a {!Dq_cfd.Cfd_parser.error} surfaced as a diagnostic) *)
  | E001  (** unsatisfiable ruleset (Section 2) *)
  | E002  (** conflicting constant patterns *)
  | E003  (** unknown attribute / malformed clause w.r.t. the schema *)
  | W001  (** redundant pattern row (implied by the rest of Σ) *)
  | W002  (** pattern row subsumed by a more general row of the same tableau *)
  | W003  (** trivial CFD: RHS attribute already constrained by the LHS *)
  | W004  (** cyclic clause interaction (Example 4.1's oscillation hazard) *)
  | W005  (** duplicate CFD name or duplicate pattern row *)
  | A001  (** attribute dependency cycle (whole-Σ, with certificate) *)
  | A002  (** oscillation pair: two clauses feed each other's LHS *)
  | A003  (** hot clause: high estimated violation density (data-aware) *)

val all_codes : code list
(** In reporting order: [E000] … [A003]. *)

val code_to_string : code -> string
(** E.g. ["E001"]. *)

val code_of_string : string -> code option

val severity_of_code : code -> severity

val severity_to_string : severity -> string
(** ["error"], ["warning"] or ["info"]. *)

val describe : code -> string
(** One-line summary of the check, for docs and [--explain]-style output. *)

val explain : code -> string
(** Multi-line catalog entry with a worked example — what
    [cfdclean lint --explain CODE] prints; [docs/ANALYSIS.md] is generated
    from the same text. *)

type t = {
  code : code;
  message : string;
  span : Dq_cfd.Cfd_parser.span option;
      (** position of the offending construct, when the ruleset came from
          source text *)
  clause : string option;  (** name of the CFD involved, when there is one *)
}

val make : ?span:Dq_cfd.Cfd_parser.span -> ?clause:string -> code -> string -> t

val severity : t -> severity

val is_error : t -> bool

val compare : t -> t -> int
(** Source order: by position (diagnostics without a span sort first), then
    by code, then message — the order lint output is presented in. *)

val pp : Format.formatter -> t -> unit
(** One line, no source excerpt: ["error[E001]: …"]. *)

val to_json : t -> Dq_obs.Json.t
(** [{"code", "severity", "message"}], then ["clause"] when known and
    ["line"], ["col"], ["end_col"] when the diagnostic has a span: one
    entry of a [--format json] envelope's [diagnostics]. *)
