(** The cost model of Section 3.2.

    The cost of changing an attribute value [v] to [v'] is

    {v cost(v,v') = w(t,A) · dis(v,v') / max(|v|,|v'|) v}

    where [dis] is the Damerau–Levenshtein distance on the textual rendering
    of the values and [w(t,A)] the confidence weight carried by the tuple.
    Dividing by the longer length makes longer strings that differ by one
    character closer than shorter ones.

    Nulls render as the empty string, so changing a value to [null] costs
    the full weight [w(t,A)] and [cost(null, null) = 0].

    Distances and lengths count bytes, not characters: a multi-byte UTF-8
    character is several edits ([dl_distance "é" "e"] is 2).

    Every function here is safe to call from any domain and any systhread
    at once, given relations and tuples no one is writing to. *)

open Dq_relation

val dl_distance : string -> string -> int
(** Restricted Damerau–Levenshtein (optimal string alignment) distance:
    minimum number of single-byte insertions, deletions, substitutions
    and adjacent transpositions.  When the shorter string has at most
    [Sys.int_size - 1] bytes (62 on 64-bit OCaml) it is the pattern of
    Hyyrö's bit-vector algorithm, which scans the other string a byte at a
    time in a few word operations; longer pairs take the dynamic program. *)

val dl_distances : string -> string array -> int array
(** [dl_distances p ts] is [Array.map (dl_distance p) ts], with [p]'s
    match masks set up once for the whole array. *)

val value_distance : Value.t -> Value.t -> int
(** [dl_distance] on {!Value.to_string} renderings. *)

val similarity : Value.t -> Value.t -> float
(** [dis(v,v') / max(|v|,|v'|)], in [0,1]; [0] when both are empty/null. *)

val change : weight:float -> Value.t -> Value.t -> float
(** [cost(v,v')] for an attribute carrying the given weight. *)

val tuple_change : original:Tuple.t -> repaired:Tuple.t -> float
(** Sum of [cost] over the attributes where the two tuples differ; weights
    are taken from the original tuple. *)

val repair_cost : original:Relation.t -> repair:Relation.t -> float
(** [cost(Repr, D)]: total change cost over tuples paired by tid.  Tuples
    present in only one relation are ignored (repairs by value modification
    preserve tids). *)
