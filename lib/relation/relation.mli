(** In-memory relation instances.

    A relation owns a set of {!Tuple.t}s over a fixed {!Schema.t}, assigns
    stable tuple identifiers, and answers per-attribute active-domain
    queries ([adom(A,D)], Section 2 of the paper).  Active domains are the
    value pools repairs draw from: the algorithms never invent new
    constants (Section 3.1).

    An attribute's active domain is built from the current tuples on its
    first query ({!active_domain}, {!active_domain_size} or
    {!in_active_domain}) and kept up to date from then on, so loads,
    copies and relations nobody queries pay nothing for it.  That first
    query writes to the relation: it must not run while another domain
    reads or writes the same relation.  No pool task calls these
    functions today.

    Value updates must go through {!set_value} so a built active domain
    stays consistent; mutating a member tuple directly with {!Tuple.set}
    bypasses it and is unsupported. *)

type t

val create : Schema.t -> t

val schema : t -> Schema.t

val cardinality : t -> int

val insert : ?weights:float array -> t -> Value.t array -> Tuple.t
(** Insert a row with a fresh tid and return the stored tuple. *)

val add : t -> Tuple.t -> unit
(** Insert a tuple preserving its tid (used to move tuples between the dirty
    database and a repair under construction).  The tuple is stored by
    reference.  @raise Invalid_argument if the tid is already present or the
    arity does not match the schema. *)

val delete : t -> int -> bool
(** Delete by tid; returns whether the tuple was present.  The tid may be
    added again later, with a new tuple or the deleted one. *)

val find : t -> int -> Tuple.t option
(** Look up by tid. *)

val find_exn : t -> int -> Tuple.t

val mem : t -> int -> bool

val set_value : t -> Tuple.t -> int -> Value.t -> unit
(** Modify one attribute value in place, keeping active domains current.
    The tuple must belong to this relation. *)

val iter : (Tuple.t -> unit) -> t -> unit
(** Iterate in insertion order: a tuple whose tid was deleted and added
    again comes where it was last added. *)

val fold : ('acc -> Tuple.t -> 'acc) -> 'acc -> t -> 'acc

val to_list : t -> Tuple.t list

val tuples : t -> Tuple.t array
(** Snapshot of the current tuples in insertion order. *)

val last : t -> int -> Tuple.t list
(** [last r k]: the [k] most recently inserted tuples (all of them when
    the relation holds fewer), in insertion order.  Costs O(k) plus the
    deleted tuples among the newest. *)

val active_domain : t -> int -> Value.t list
(** Distinct non-null values of the attribute at a position, sorted by
    {!Value.compare}.  The first active-domain query on a position builds
    its index (see above). *)

val active_domain_size : t -> int -> int
(** The length of {!active_domain}; builds the index like it. *)

val in_active_domain : t -> int -> Value.t -> bool
(** Membership in {!active_domain}; builds the index like it. *)

val copy : t -> t
(** Deep copy: fresh tuples (same tids); active domains are built again
    on the copy's first query. *)

val dif : t -> t -> int
(** [dif d1 d2] counts attribute-level differences between tuples paired by
    tid (strict value equality), plus [arity] for every tid present in
    exactly one of the two — the difference measure of Section 1/3.3. *)

val pp : Format.formatter -> t -> unit
(** Render as an aligned table (for examples and debugging). *)
