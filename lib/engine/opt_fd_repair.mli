(** Value repair for the FD-only fragment of Σ, optimal on chain-free Σ.

    The algorithm is the stratified variant of Livshits–Kimelfeld–Roy
    (arXiv:1712.07705): when every clause is an embedded FD (all pattern
    cells wildcards) and the attribute dependency graph is acyclic, a
    {e value} repair can be computed in one sweep, with no fixpoint
    iteration:

    - process RHS attributes in topological order of the dependency
      graph, so every LHS value a stratum groups on is already final;
    - within the stratum of attribute [A], for each FD [X → A], group
      tuples by their (repaired) [X] key and union the [A]-cells of each
      group into one equivalence class;
    - assign each class its weighted-medoid member value — the constant
      minimising [Σ w(t,A) · sim(t[A], v)] over the class, which is the
      per-class optimum of the Section 4.2 cost model.

    Because the sweep never commits a constant before its upstream
    values are final, it cannot run into the constant-vs-constant
    conflicts that force BATCHREPAIR into LHS fixes or null
    introductions — so on this fragment its cost never exceeds the batch
    engine's, and it introduces no nulls at all.

    The repair is optimal only when Σ is also {e chain-free}: no RHS
    attribute is on some clause's LHS.  Optimal means cheapest among the
    repairs that change only RHS cells, each to a value of its
    attribute's active domain; an exhaustive oracle in the engine suite
    enumerates that class on small random instances.  On a chain the
    sweep fixes an attribute group by group before reading it as an
    LHS, so it may pay downstream for a value a cheaper repair would
    have chosen to suit the next stratum.  With Σ = \{A → B, B → C\} over (xyz, xbc,
    abc), (xbc, abc, xbc), (xyz, abc, abc), it gives the A = xyz group
    B = abc and then changes a C, at cost 0.667; changing the third
    tuple's B to xbc costs 0.333.  What holds on chains is one sweep
    whose cost never exceeds BATCHREPAIR's.

    The engine is deterministic by construction (no decision depends on
    hash-table iteration order or the job count), emits the same
    provenance trail as the other engines ([Provenance.replay] over the
    dirty input reproduces the repair), checks deadlines at stratum
    boundaries, and checkpoints there with {!Dq_core.Checkpoint}
    (kind [opt-fd-repair]). *)

open Dq_relation
open Dq_cfd

type stats = {
  strata : int;  (** attribute strata completed *)
  groups : int;  (** distinct LHS-key groups examined *)
  merges : int;  (** equivalence-class unions *)
  cells_changed : int;
  runtime : float;
}

val pp_stats : Format.formatter -> stats -> unit

val engine_name : string
(** ["opt-fd"], the registry name. *)

val fragment : Schema.t -> Cfd.t array -> (unit, string) result
(** [Ok ()] iff every clause of Σ is an embedded FD and the attribute
    dependency graph is acyclic; otherwise a one-line reason naming the
    first offending clause or the cycle count. *)

val repair :
  ?deadline:Dq_fault.Deadline.t ->
  ?checkpoint:string ->
  ?resume:Dq_core.Checkpoint.t ->
  Relation.t ->
  Cfd.t array ->
  ((Relation.t * stats) * Dq_obs.Report.t, Dq_error.t) result
(** Fragment violations return [Error (Engine_unsupported _)].  A
    deadline cut before any stratum completed (on a fresh run) returns
    [Error Deadline_exceeded]; later cuts return the strata finished so
    far with [degraded] set and progress = strata done / total.  The
    sweep runs on the calling domain. *)
