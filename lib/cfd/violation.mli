(** CFD violation detection and the [vio] measure of Section 3.1.

    Two violation shapes exist for a normal-form clause [φ = (X → A, tp)]:

    - {b single-tuple} (case 1): [t[X] ≼ tp[X]] but [t[A] ⋠ tp[A]], which
      can only happen when [tp[A]] is a constant;
    - {b pair} (case 2): [t[X] = t'[X] ≼ tp[X]] but [t[A] ≠ t'[A]]
      (w.l.o.g. [tp[A] = '_']).

    Nulls: a tuple whose [X] values contain [null] matches no pattern and
    hence violates nothing; a [null] in the [A] position equates with
    anything under the simple SQL semantics, so it resolves rather than
    causes violations.  This is exactly what makes setting a target to
    [null] a terminal resolution step in the repairing algorithms.

    {b Grouping.}  Wildcard-RHS clauses are checked on interned codes:
    each attribute such a clause reads is interned once per scan into int
    codes (null as [-1], values told apart by {!Dq_relation.Value.equal}),
    each clause's matching tuples get a group id from their LHS codes,
    and [vio(t)] is the group's non-null RHS count minus the count of
    [t]'s own RHS code.  The work is linear in the relation per clause,
    with no pair listing.

    {b Parallelism.}  The functions below accept an optional domain pool.
    The constant-clause scan partitions the tuple snapshot into chunks,
    each probing a read-only {!Anchor_index} of the constant clauses,
    with chunk results merged in chunk-index order.  The wildcard-clause kernel runs sequentially in
    the calling domain, one clause at a time in Σ order.  Results are
    {e byte-identical at any job count}, and the sequential path (no
    [pool]) runs the very same code on a single chunk. *)

open Dq_relation

type t =
  | Single of { tid : int; cfd : Cfd.t }
  | Pair of { tid1 : int; tid2 : int; cfd : Cfd.t }

val cfd_of : t -> Cfd.t

val tids : t -> int list

val pp : Format.formatter -> t -> unit

val violates_constant : Cfd.t -> Tuple.t -> bool
(** Case-1 check for one tuple against a constant-RHS clause (always [false]
    for a wildcard-RHS clause). *)

val pair_conflict : Cfd.t -> Tuple.t -> Tuple.t -> bool
(** Case-2 check for two tuples against a wildcard-RHS clause (always
    [false] for a constant-RHS clause — such conflicts surface as case 1). *)

val find_all : ?pool:Dq_parallel.Pool.t -> Relation.t -> Cfd.t array -> t list
(** All single-tuple violations, plus — to avoid a quadratic listing — for
    each conflicting group one {!Pair} per tuple, against a witness holding
    a different RHS value.  Every tuple involved in any violation appears in
    at least one returned violation; use {!vio_tuple}/{!total} for exact
    counts.  Order is canonical and job-count independent: constant-clause
    singles in relation order first, then pairs per wildcard clause in Σ
    order, each clause's pairs in relation order with the witness being the
    group's first conflicting member in relation order. *)

val violating_tids : Relation.t -> Cfd.t array -> int list
(** Distinct tids of tuples involved in at least one violation, in
    insertion order. *)

val vio_tuple : Relation.t -> Cfd.t array -> Tuple.t -> int
(** [vio(t)]: number of violations incurred by [t] (Section 3.1).  The tuple
    need not belong to the relation (used to score candidate insertions). *)

val vio_counts :
  ?pool:Dq_parallel.Pool.t ->
  ?deadline:Dq_fault.Deadline.t ->
  Relation.t ->
  Cfd.t array ->
  (int, int) Hashtbl.t
(** [vio(t)] for every tuple of the relation at once (tid-keyed); tuples
    with no violations are absent.  One pass per clause; the table is
    populated in relation order so folds over it are deterministic.
    An expired [deadline] raises [Dq_fault.Deadline.Expired] (checked at
    chunk boundaries of the constant-clause scan and before each
    wildcard clause). *)

val total : ?pool:Dq_parallel.Pool.t -> Relation.t -> Cfd.t array -> int
(** [vio(D)]: sum of [vio(t)] over all tuples. *)

val satisfies : ?pool:Dq_parallel.Pool.t -> Relation.t -> Cfd.t array -> bool
(** [D |= Σ] — no violation of any clause, with early exit (cooperative
    across chunks when parallel). *)
