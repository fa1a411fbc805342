(** BATCHREPAIR (Section 4, Figures 4–5): heuristic repair of a dirty
    database against a set of CFDs.

    The algorithm maintains equivalence classes of tuple attributes
    ({!Eqclass}) and a per-clause set of (potentially) dirty tuples.  Each
    step, [PICKNEXT] scores one candidate fix per dirty (clause, tuple)
    pair and applies the cheapest:

    - case 1.1 — a constant-RHS clause with an unfixed target: upgrade the
      RHS class's target to the pattern constant;
    - case 2.1 — two tuples disagree on a wildcard-RHS clause and at least
      one RHS class is unfixed: merge the two classes;
    - cases 1.2 / 2.2 — the RHS targets are committed constants: change an
      LHS attribute instead, to a [FINDV]-chosen semantically related value
      if one resolves the violation, otherwise to [null].

    Every step merges classes or upgrades a target in the one-way lattice
    [_ → const → null], so the algorithm terminates (Theorem 4.2) even on
    CFD sets where RHS-only FD repairing would loop (Example 4.1).  When no
    dirty tuples remain, still-unfixed classes are instantiated with their
    least-cost constant, which may surface new violations; the loop then
    resumes until none remain. *)

open Dq_relation
open Dq_cfd

type stats = {
  steps : int;  (** resolution steps applied *)
  merges : int;  (** case-2.1 class merges *)
  rhs_fixes : int;  (** case-1.1 target upgrades *)
  lhs_fixes : int;  (** case-1.2/2.2 LHS changes *)
  nulls_introduced : int;  (** targets upgraded to [null] *)
  cells_changed : int;  (** attribute values differing from the input *)
  runtime : float;
      (** seconds on {!Dq_fault.Clock} from entry to return; the report's
          phases lie inside it *)
}

val pp_stats : Format.formatter -> stats -> unit

type checkpoint_spec = {
  path : string;  (** where to write snapshots ({!Checkpoint.save}) *)
  every : int;  (** write one every [every] pass boundaries (>= 1) *)
}

val repair :
  ?use_dependency_graph:bool ->
  ?deadline:Dq_fault.Deadline.t ->
  ?checkpoint:checkpoint_spec ->
  ?resume:Checkpoint.t ->
  Relation.t ->
  Cfd.t array ->
  ((Relation.t * stats) * Dq_obs.Report.t, Dq_error.t) result
(** [repair d sigma] returns a repaired deep copy of [d] (tids preserved)
    satisfying [sigma], together with statistics and a structured
    {!Dq_obs.Report.t}.  The report's provenance trail holds one entry per
    effective-value change — replaying it over [d] with
    {!Dq_obs.Provenance.replay} reconstructs the repaired relation
    byte-for-byte — and its summary repeats the deterministic counters of
    [stats].  [Error (Internal _)] signals a broken engine invariant (step
    budget or rescan convergence) — a bug, not a property of the input.

    The engine runs on the calling domain: its resolution loop applies
    one globally cheapest fix at a time against shared union–find state,
    and its initial scan, a small share of a run, measured slower on two
    domains than on one.

    [PICKNEXT] is realised as a lazy priority queue over (clause, tuple)
    pairs keyed by plan cost: popped pairs are re-verified against the
    current targets and re-queued at their true cost when stale, so each
    step applies the globally cheapest live fix without rescanning every
    dirty tuple — the optimization that makes BATCHREPAIR scale
    (Section 7.2).  [use_dependency_graph] (default [true]) additionally
    biases freshly discovered violations by their stratum in the SCC
    condensation of the attribute dependency graph, so upstream clauses
    are scored first.

    {2 Deadlines}

    [deadline] stops the run cooperatively.  Wall-clock deadlines
    ({!Dq_fault.Deadline.after}) are polled every 1024 resolution steps
    and at every pass boundary; pass-count deadlines
    ({!Dq_fault.Deadline.after_passes}) tick {e only} at boundaries, so a
    run cut after [k] passes is exactly the first [k] passes of the
    uninterrupted run.  A cut run still instantiates every unfixed class
    — the result is a usable, fully-valued relation that may however
    still violate [sigma] — and its report carries
    [degraded = Some {reason; progress}], where [progress] is the share
    of known repair steps that were applied.  If the deadline expires
    before any step of a fresh run, there is nothing usable and the
    result is [Error Deadline_exceeded].

    {2 Checkpoint / resume}

    [checkpoint] snapshots the run's state ({!Checkpoint}) at pass
    boundaries — atomically, so a crash mid-write leaves the previous
    snapshot intact.  [resume] continues from such a snapshot: the
    relation and ruleset must be the ones the checkpoint was taken from
    (enforced by fingerprint; mismatch is [Error (Invalid_input _)]).

    Neither option changes a decision.  No decision of the engine
    depends on hash-table iteration history: the conflict partner is the
    smallest conflicting tid, float sums and medoid scans run in value
    order, merged classes rebuild their weights in member order,
    instantiation visits roots in sorted order, and the queue's total
    tie-break makes offer order irrelevant.  So a run killed at any point
    and resumed from its last checkpoint produces output byte-identical
    to a plain run without [checkpoint] or [resume]. *)
