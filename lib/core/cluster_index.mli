(** Cost-based indices (Section 5.2): active-domain values of an attribute
    arranged in a cluster tree so that candidate repair values can be
    enumerated in (approximately) increasing Damerau–Levenshtein distance
    from a query value.

    The paper builds the tree with hierarchical agglomerative clustering;
    we use the standard top-down bisecting variant (two farthest-point
    seeds, partition by nearest seed, recurse), which produces the same
    kind of similarity hierarchy in O(n log n) distance computations
    instead of O(n²).  Lookups run best-first over the tree, keyed by the
    distance from the query to each cluster's representative, so the
    enumeration order is approximate — exactly what a candidate-value
    heuristic needs.

    A build makes three one-to-many distance passes ({!Cost.dl_distances})
    per internal node: from the node's first text, which picks seed [a];
    from [a], which picks seed [b] and serves the partition; and from [b].
    The tree is a function of the sorted value set alone: each seed is the
    {e first} text at the greatest distance, a text goes to [a]'s side when
    [d(t, a) <= d(t, b)], each side keeps its input order, and a node whose
    seeds render alike, or whose partition leaves a side empty, is split
    into halves instead. *)

open Dq_relation

type t

val build : Value.t list -> t
(** Cluster the given (non-null, deduplicated) values. *)

val of_attribute : Relation.t -> int -> t
(** [build] on the active domain of an attribute. *)

val size : t -> int

val nearest : t -> Value.t -> k:int -> Value.t list
(** Up to [k] values, in approximately increasing distance from the query;
    the query itself is included if present in the domain.  [[]] when
    [k <= 0]. *)

val find_first : t -> Value.t -> (Value.t -> bool) -> Value.t option
(** The first value satisfying the predicate, enumerating nearest-first. *)
