(** Clauses filed by their anchor, to find the clauses a tuple can match.

    A clause's {e anchor} is the first constant of its LHS pattern, as a
    (position, constant) pair.  A tuple matches the clause's LHS pattern
    only if its value at that position equals the constant (a null
    matches no constant).  Pattern tableaus can hold thousands of rows,
    so instead of testing every clause per tuple, the index looks the
    tuple's own value up at each position some clause is anchored at:
    O(anchor positions + clauses found) per tuple, not O(|Σ|).

    {!Violation}'s constant-clause scans, {!Lhs_index}, and BATCHREPAIR's
    per-attribute clause lookups and bucket filing all use it.  It is
    read-only once built, so domains may probe it concurrently. *)

open Dq_relation

type 'a t

val build : ('a -> Cfd.t) -> 'a list -> 'a t
(** [build clause items] files each item under the anchor of
    [clause item].  An item whose clause has no constant in its LHS
    pattern is {e plain}. *)

val iter : 'a t -> (int -> Value.t) -> ('a -> unit) -> unit
(** [iter idx value_at f] calls [f] on the plain items, in list order,
    then, for each anchor position [p] in ascending order, on the items
    anchored at [(p, value_at p)], later items of the list first.  Every
    item whose clause a tuple with these values can match is among them,
    and each is visited once (as often as it occurs in the list). *)

val positions : 'a t -> int list
(** The distinct positions some item is anchored at, ascending. *)
