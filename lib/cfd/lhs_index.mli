(** LHS-indices (Section 5.2).

    For each clause [φ = (X → A, tp)] over a {e clean} relation, the index
    maps the LHS key [t'[X]] of every tuple matching [tp[X]] to the unique
    RHS value the relation holds for it.  A candidate tuple can then be
    checked against all of Σ in O(|Σ|) hash lookups instead of a scan —
    the workhorse of [TUPLERESOLVE].

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

val expected_rhs : t -> Cfd.t -> Tuple.t -> Value.t option
(** The RHS value clause [cfd] forces on this tuple, if any: the constant
    [tp[A]] when the clause is constant, otherwise the indexed value for the
    tuple's LHS key.  [None] when the tuple does not match [tp[X]] or no
    tuple with this key has been indexed. *)

val violates : t -> Cfd.t -> Tuple.t -> bool
(** Would the tuple, if inserted, violate the clause against the indexed
    relation?  (Nulls resolve, as in {!Violation}.) *)

val vio : t -> Tuple.t -> int
(** Number of clauses of Σ the tuple would violate if inserted. *)

val vio_subset : t -> Cfd.t list -> Tuple.t -> int
(** Like {!vio} restricted to the given clauses. *)
