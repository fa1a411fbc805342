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

    Optimizations from Section 5.2 are built in: LHS-indices
    ({!Dq_cfd.Lhs_index}) list the clauses a tuple violates while testing
    only the clauses its values can match, and cost-based cluster indices
    ({!Cluster_index}) propose candidate values near the current one.
    Attributes mentioned in no violated clause are frozen immediately at
    zero cost, so a clean tuple costs one index pass.  Each candidate of
    a greedy step costs one more: the clauses it violates give both its
    [vio] and whether it breaks a clause the step must satisfy. *)

open Dq_relation

type env
(** Shared state for resolving a stream of tuples against a growing repair:
    the repair relation, its LHS-indices, and per-attribute cluster
    indices.

    An environment is valid while it equals [make_env] over its relation
    in insertion order.  {!add} and {!delete} keep it so.  Deleting or
    changing a tuple of the relation directly breaks it: the LHS-indices
    keep the first RHS value seen per key, and the cluster cache is
    keyed by active-domain size.  A serve session deletes through
    {!delete} when a batch quarantines a tuple, a replacement is refused
    or a batch is cut or rolled back, and keeps its environment. *)

val make_env :
  ?k:int ->
  ?use_cluster_index:bool ->
  Relation.t ->
  Dq_cfd.Cfd.t array ->
  env
(** [make_env repr sigma] builds the environment.  [k] (default 2) is the
    number of attributes fixed per greedy step; candidate values are
    capped at six per attribute; [use_cluster_index] (default true)
    toggles the cost-based index (the ablation of DESIGN.md §5.2).
    The environment keeps [repr] by reference and changes it through
    {!add} and {!delete}. *)

val relation : env -> Relation.t
(** The repair relation the environment indexes. *)

val sigma : env -> Dq_cfd.Cfd.t array

val add : env -> Tuple.t -> unit
(** Add a tuple to the relation and register it in the LHS-indices
    ([Repr] grows tuple by tuple in INCREPAIR).  The tuple is stored by
    reference.  @raise Invalid_argument as {!Relation.add} does. *)

val delete : env -> int list -> unit
(** Delete the tuples with these tids from the relation (absent tids are
    ignored) and bring the environment back to [make_env] over what is
    left.  The LHS-index tables are registered again from the relation,
    which costs O(|relation| · |Σ_wild|); the partition of Σ and the
    per-clause lists stay.  A cached cluster stays unless its
    attribute's active domain shrank. *)

val cluster : env -> int -> Cluster_index.t
(** The cost-based index over an attribute's active domain in [repr].
    It is built on first use and rebuilt only when the attribute's
    active-domain size has changed since.  A cached tree's value set has
    only grown since it was built ({!delete} drops the tree of a domain
    that shrank), so a changed size is exactly a changed set. *)

val resolve : env -> Tuple.t -> Tuple.t
(** A repaired copy of the tuple (same tid and weights) such that adding it
    to the environment's relation keeps it clean. *)

val vio_against : env -> Tuple.t -> int
(** How many clauses the tuple would violate against the current repair —
    exposed for orderings and diagnostics. *)
