(** LHS-indices (Section 5.2).

    For each clause [φ = (X → A, tp)] over a {e clean} relation, the index
    maps the LHS key [t'[X]] of every tuple matching [tp[X]] to the unique
    RHS value the relation holds for it.  A candidate tuple is then
    checked against Σ without scanning it — the workhorse of
    [TUPLERESOLVE].  The clauses are filed by the first constant of
    their LHS pattern (their {e anchor}) in an {!Anchor_index}, so a
    check looks the tuple's value up at each position some clause is
    anchored at and tests only the clauses filed there, plus those with
    no constant in their LHS pattern: O(anchor positions + clauses the
    tuple can match) per tuple, not O(|Σ|).

    Constant-RHS clauses need no table: the expected value is [tp[A]]
    itself, so checking is a direct pattern test.  Only the wildcard-RHS
    clauses — on Datagen rulesets about one in thirty — get a table, so
    building and extending the index costs O(|Σ_wild|) per tuple, not
    O(|Σ|). *)

open Dq_relation

type t

val build : Cfd.t array -> Relation.t -> t
(** Index a (clean) relation for every clause of Σ, numbered by
    {!Cfd.number} (a clause's id is its position).  If the relation is not
    actually clean, the first non-null RHS value seen per key wins. *)

val add_tuple : t -> Tuple.t -> unit
(** Register a newly inserted (repaired) tuple, keeping the index current as
    the repair grows. *)

val reindex : t -> Relation.t -> unit
(** Empty the tables and register every tuple of the relation again, in
    its insertion order.  The index then equals [build] over the
    relation, with the anchored clauses kept.  This is how the index
    follows a relation that lost tuples: a table keeps the first RHS
    value seen per key, which a deletion can leave stale. *)

val expected_rhs : t -> Cfd.t -> Tuple.t -> Value.t option
(** The RHS value clause [cfd] forces on this tuple, if any: the constant
    [tp[A]] when the clause is constant, otherwise the indexed value for the
    tuple's LHS key.  [None] when the tuple does not match [tp[X]] or no
    tuple with this key has been indexed. *)

val violates : t -> Cfd.t -> Tuple.t -> bool
(** Would the tuple, if inserted, violate the clause against the indexed
    relation?  (Nulls resolve, as in {!Violation}.) *)

val iter_violated : t -> Tuple.t -> (Cfd.t -> unit) -> unit
(** [iter_violated idx t f] calls [f] once on each clause of Σ the tuple
    would violate if inserted, and on no other.  Only the clauses the
    tuple's values can match are tested.  The order of the calls is
    unspecified. *)

val vio : t -> Tuple.t -> int
(** Number of clauses of Σ the tuple would violate if inserted: the
    calls {!iter_violated} makes. *)
