(** Whole-ruleset static analysis of a normalized Σ.

    Where {!Lint} checks one construct at a time, this module analyses how
    the clauses of Σ {e interact}: the attribute dependency graph and its
    SCC condensation (with printable cycle certificates generalizing the
    Example-4.1 lint), a termination verdict for the naive repair fixpoint,
    a {e shard-safety partition} grouping clauses into independently
    repairable components, direct clause-pair oscillation hazards, and —
    when a data instance is supplied — per-clause cost estimates from a
    bounded sample.

    Everything here is pure data, rendered by the [cfdclean analyze]
    subcommand.  The termination verdict also gates: [--analyze-gate],
    serve's session creation and opt-fd's fragment check call
    {!termination}, which builds only the dependency graph, its SCCs and
    the cycle certificates, not the pairwise oscillation scan or the
    shard plan; lint's W004 reads its components from the same verdict.
    No engine reads the shard plan. *)

open Dq_relation
open Dq_cfd

(** One condensed edge [src → dst] of the attribute dependency graph:
    some clause has [src] in its LHS and [dst] as its RHS.  [clauses]
    lists every inducing clause id, ascending. *)
type edge = { src : int; dst : int; clauses : int list }

(** A printable certificate for one attribute SCC of size > 1: a closed
    walk of [(src attribute, clause id, dst attribute)] steps, starting
    and ending at the same attribute.  [attrs] is the full component,
    ascending. *)
type cycle = { attrs : int list; steps : (int * int * int) list }

type termination =
  | Terminating  (** the attribute dependency graph is acyclic *)
  | May_oscillate of cycle list
      (** naive RHS-only rule application may loop (Example 4.1); one
          certificate per cyclic SCC.  BATCHREPAIR itself still
          terminates (Theorem 4.2) — this verdict is about the repair
          {e fixpoint} a gate should refuse. *)

(** A connected component of clauses over shared attributes.  Two shards
    never touch a common attribute, so they are repairable in isolation;
    [independent] is [false] when the shard contains a dependency cycle
    or an oscillation pair and its internal repairs may need
    reconciliation passes. *)
type shard = {
  shard_id : int;  (** dense ids, ordered by smallest member clause id *)
  clauses : int list;  (** member clause ids, ascending *)
  attrs : int list;  (** attribute positions the shard touches, ascending *)
  independent : bool;
}

type osc_severity = High | Medium | Low

(** A direct two-clause oscillation hazard: [a]'s RHS attribute feeds
    [b]'s LHS and vice versa, with pattern entries compatible enough
    that one repair can trigger the other.  Severity: [High] when both
    RHS patterns are wildcards (unbounded ping-pong), [Medium] when
    exactly one is a constant, [Low] when both are constants (the loop
    closes after at most one round). *)
type oscillation = { a : int; b : int; severity : osc_severity }

(** Data-aware per-clause estimates over a bounded sample of the
    instance.  [selectivity] is the fraction of sampled tuples matching
    the clause's LHS pattern; [violation_density] the fraction involved
    in a violation of the clause; [fanout] the mean size of the LHS
    groups a matching tuple lands in (1.0 for constant-RHS clauses —
    repairs touch one tuple at a time).  [hot] flags clauses whose
    violation density crosses {!hot_threshold}. *)
type clause_cost = {
  clause : int;
  selectivity : float;
  violation_density : float;
  fanout : float;
  hot : bool;
}

val hot_threshold : float
(** Violation density at which a clause is flagged hot (0.01). *)

type t = {
  schema : Schema.t;
  sigma : Cfd.t array;
  edges : edge list;  (** ascending by (src, dst) *)
  comp : int array;  (** attribute position → SCC id (reverse topo order) *)
  cycles : cycle list;  (** one per SCC of size > 1, by smallest attr *)
  termination : termination;
  shards : shard list;
  oscillations : oscillation list;  (** ascending by (a, b) *)
  costs : clause_cost list option;  (** [Some _] iff [analyze] got [?data] *)
}

val termination : Schema.t -> Cfd.t array -> termination
(** The termination verdict alone: the dependency graph's cyclic SCCs,
    one certificate each, ascending by smallest attribute — the same
    value as [(analyze schema sigma).termination].
    @raise Invalid_argument if a clause's schema disagrees with [schema]. *)

val analyze : ?data:Relation.t -> ?sample:int -> Schema.t -> Cfd.t array -> t
(** [analyze schema sigma] runs every static analysis; with [?data] also
    the sampled cost estimates ([sample] caps the tuples examined,
    default 2000 — the sample is the instance's first tuples, so results
    are deterministic).  All list outputs are deterministically ordered.
    @raise Invalid_argument if a clause's schema disagrees with [schema]. *)

val cycle_to_string : Schema.t -> Cfd.t array -> cycle -> string
(** Render a certificate, e.g. ["CT --phi4--> zip --phi2--> CT"]. *)

val severity_to_string : osc_severity -> string
(** ["high"], ["medium"] or ["low"]. *)
