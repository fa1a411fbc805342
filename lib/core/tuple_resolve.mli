(** TUPLERESOLVE (Section 5.1, Figure 7): repair a single tuple against a
    clean relation.

    Given the current repair [Repr] (clean) and a tuple [t] to insert,
    greedily pick the best set [C] of at most [k] attributes and values
    [v̂] over [adom(Repr) ∪ {null}] such that [Repr ∪ {t[C/v̂]}] satisfies
    every clause whose attributes are all fixed, minimising

    {v costfix(C, v̂) = cost(t, t[C/v̂]) · (1 + vio(t[C/v̂])) v}

    then freeze [C] and repeat until every attribute is fixed.  (The paper
    multiplies by [vio] alone; we add 1 so that among violation-free
    candidates the cheaper change still wins rather than all tying at 0.)

    Optimizations from Section 5.2 are built in: LHS-indices answer the
    satisfaction and [vio] checks in O(|Σ|), and cost-based cluster indices
    ({!Cluster_index}) propose candidate values near the current one.
    Attributes mentioned in no violated clause are frozen immediately at
    zero cost, so clean tuples resolve in O(|Σ|). *)

open Dq_relation

type env
(** Shared state for resolving a stream of tuples against a growing repair:
    the repair relation, its LHS-indices, and per-attribute cluster
    indices.

    An environment is valid while it equals [make_env] over its relation
    in insertion order.  {!add} keeps it so.  Deleting or changing a
    tuple of the relation breaks it: the LHS-indices keep the first RHS
    value seen per key, and the cluster cache is keyed by active-domain
    size.  Whoever shrinks or edits the relation discards the
    environment and builds a new one before the next {!resolve}.  A serve
    session does this when a batch quarantines a tuple or is rolled
    back. *)

val make_env :
  ?k:int ->
  ?max_candidates:int ->
  ?use_cluster_index:bool ->
  Relation.t ->
  Dq_cfd.Cfd.t array ->
  env
(** [make_env repr sigma] builds the environment.  [k] (default 2) is the
    number of attributes fixed per greedy step; [max_candidates] (default
    6) caps candidate values per attribute; [use_cluster_index] (default
    true) toggles the cost-based index (the ablation of DESIGN.md §5.2).
    The environment keeps [repr] by reference and grows it through
    {!add}. *)

val relation : env -> Relation.t
(** The repair relation the environment indexes. *)

val sigma : env -> Dq_cfd.Cfd.t array

val add : env -> Tuple.t -> unit
(** Add a tuple to the relation and register it in the LHS-indices
    ([Repr] grows tuple by tuple in INCREPAIR).  The tuple is stored by
    reference.  @raise Invalid_argument as {!Relation.add} does. *)

val cluster : env -> int -> Cluster_index.t
(** The cost-based index over an attribute's active domain in [repr].
    It is built on first use and rebuilt only when the attribute's
    active-domain size has changed since, which (as [repr] only grows
    while the environment is valid) is exactly when its set of values
    has. *)

val resolve : env -> Tuple.t -> Tuple.t
(** A repaired copy of the tuple (same tid and weights) such that adding it
    to the environment's relation keeps it clean. *)

val vio_against : env -> Tuple.t -> int
(** How many clauses the tuple would violate against the current repair —
    exposed for orderings and diagnostics. *)
