(** Conditional functional dependencies.

    A CFD [φ = (R : X → Y, Tp)] pairs an embedded FD with a pattern tableau
    (Section 2).  Following the paper we work internally in {e normal form}:
    each {!t} is [(R : X → A, tp)] with a single right-hand-side attribute
    and a single pattern tuple.  {!Tableau} is the user-facing multi-row,
    multi-RHS form; {!normalize} expands it. *)

open Dq_relation

type t
(** A normal-form CFD clause. *)

module Tableau : sig
  (** The user-facing form: [(R : X → Y, Tp)] with a full tableau. *)

  type row = { lhs : Pattern.t list; rhs : Pattern.t list }

  type nonrec t = {
    name : string;  (** e.g. ["phi1"] *)
    lhs_attrs : string list;
    rhs_attrs : string list;
    rows : row list;  (** empty means a plain FD: one all-wildcard row *)
  }

  val fd : name:string -> lhs:string list -> rhs:string list -> t
  (** A traditional FD expressed as a CFD (single all-wild pattern row). *)

  val pp : Format.formatter -> t -> unit
end

val make :
  ?name:string ->
  Schema.t ->
  lhs:(string * Pattern.t) list ->
  rhs:string * Pattern.t ->
  t
(** Build a single normal-form clause directly.  The RHS attribute may also
    appear in the LHS (the paper's [tp[A_L]]/[tp[A_R]] case).
    @raise Invalid_argument on an unknown attribute or an empty or
    duplicated LHS. *)

val normalize : Schema.t -> Tableau.t -> t list
(** Expand a tableau CFD into normal-form clauses: one per (row, RHS
    attribute).  An empty [rows] list yields the all-wildcard row.
    @raise Invalid_argument on arity mismatches or unknown attributes. *)

val with_schema : Schema.t -> t -> t
(** Re-express a clause over another schema containing the same attribute
    names (e.g. a projection): positions are remapped by name; the id,
    name and patterns are kept.
    @raise Invalid_argument if an attribute is missing from the target. *)

val number : t list -> t array
(** Assign ids [0..n-1] (by position).  Every algorithm takes Σ as the array
    returned here; {!id} indexes per-CFD state. *)

val id : t -> int

val name : t -> string

val schema : t -> Schema.t

val lhs : t -> int array
(** LHS attribute positions, distinct, in declaration order (aligned with
    {!lhs_patterns}). *)

val rhs : t -> int
(** RHS attribute position. *)

val lhs_patterns : t -> Pattern.t array

val rhs_pattern : t -> Pattern.t

val attrs : t -> int list
(** All attribute positions mentioned ([X ∪ {A}]). *)

val is_constant : t -> bool
(** Whether the RHS pattern is a constant ("constant CFD"). *)

val is_embedded_fd : t -> bool
(** Whether every pattern entry is a wildcard, i.e. the clause is exactly
    its embedded FD. *)

val embedded_fd : t -> t
(** The clause with every pattern entry replaced by a wildcard — the FD
    embedded in the CFD.  Used for the FD-baseline of Figure 8. *)

val embedded_fd_key : t -> int * int array
(** The identity of the clause's embedded FD: the RHS position and the LHS
    positions in ascending order.  Two clauses embed the same FD exactly
    when their keys are structurally equal, whatever order their LHS
    attributes were declared in. *)

val embedded_fds : t list -> t list
(** Embedded FDs of a set, deduplicated by {!embedded_fd_key}, in order of
    first occurrence. *)

val applies_lhs : t -> Tuple.t -> bool
(** [t[X] ≼ tp[X]] — the tuple (null-free on [X]) matches the LHS pattern. *)

val rhs_matches : t -> Tuple.t -> bool
(** [t[A] ≼ tp[A]]. *)

val lhs_key : t -> Tuple.t -> Value.t array
(** The tuple's LHS values in LHS order (for grouping and indexing). *)

val same_embedded_fd : t -> t -> bool
(** Whether the two clauses have equal {!embedded_fd_key}s. *)

val pp : Format.formatter -> t -> unit
(** Render as e.g. [phi1#0: [AC, PN] -> [CT] | (212, _ || NYC)]. *)
