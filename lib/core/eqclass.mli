(** Equivalence classes of tuple attributes with target values (Section 4.1).

    A class groups cells [(t, A)] — tuple/attribute pairs — that a repair
    will assign a single {e target} value.  Targets live in a one-way
    upgrade lattice:

    {v  Unfixed ('_')  →  Const a  →  Null  v}

    A target is never downgraded and never moves between distinct
    constants; when a constant target clashes with a constraint, the repair
    must touch LHS attributes instead (case 1.2 / 2.2 of the paper).

    While a class is [Unfixed], its {e representative value} — the original
    value of the cell that created the class's root — stands in for the
    eventual target when checking violations; see {!effective}.  Separating
    "which cells must agree" from "on what value" is what lets the
    algorithm defer poor local decisions (Section 4.1).

    {b Representation.}  A cell [(t, A)] has the id [t × arity + A], and
    the structure is two flat arrays indexed by cell id: a union–find
    [parent] array and, at each root, a record with the class's target,
    representative, rank, size and member list.  Finding a cell's class is
    a few array reads, with no hashing.  The arrays grow by doubling to
    cover the largest cell registered so far, so they take about two words
    per cell up to [(max tid + 1) × arity], plus one record and one member
    entry per registered cell.  That is proportional to the relation
    because every loader numbers tids densely from 0; sparse, very large
    tids would waste the gaps. *)

open Dq_relation

type target = Unfixed | Const of Value.t | Null

val pp_target : Format.formatter -> target -> unit

type t

val create : arity:int -> original:(tid:int -> attr:int -> Value.t) -> t
(** [original] reads a cell's value in the original database; it is
    consulted when a cell is first registered, to seed representatives. *)

val cell : t -> tid:int -> attr:int -> int
(** Encode a cell id.  Registers the cell (as a singleton class) on first
    use.  @raise Invalid_argument if [attr] is outside [0, arity) or [tid]
    is negative. *)

val tid_attr : t -> int -> int * int
(** Decode a cell id back to [(tid, attr)]. *)

val find : t -> int -> int
(** Root cell of the class (with path compression).  Registers a cell id
    not seen before, like {!cell}; every query below does the same.
    @raise Invalid_argument on a negative cell id. *)

val same_class : t -> int -> int -> bool

val target : t -> int -> target
(** Target of the cell's class. *)

val repr : t -> int -> Value.t
(** Representative original value of the cell's class. *)

val effective : t -> int -> Value.t
(** The value the cell currently stands for: the constant if the target is
    [Const], [Value.null] if [Null], the representative if [Unfixed]. *)

val set_target : t -> int -> target -> unit
(** Upgrade the class's target.  @raise Invalid_argument on a downgrade or
    a move between distinct constants. *)

val union : t -> int -> int -> int
(** Merge two classes and return the new root.  Targets join in the
    lattice ([Unfixed ⊔ x = x], [Null ⊔ x = Null]).
    @raise Invalid_argument when both targets are distinct constants — the
    caller must resolve such conflicts by other means (case 2.2). *)

val members : t -> int -> (int * int) list
(** All [(tid, attr)] cells of the class. *)

val size : t -> int -> int

val n_cells : t -> int

val n_classes : t -> int

val iter_roots : (int -> unit) -> t -> unit
(** Iterate over the class roots present at the call, in ascending
    cell-id order.  The roots are collected before [f] first runs, so [f]
    may merge classes or register cells. *)

val set_repr : t -> int -> Value.t -> unit
(** Update the representative of the cell's class.  Only meaningful while
    the target is [Unfixed]: callers use it to keep the representative
    aligned with the value the class is expected to take (e.g. the
    weighted-majority member value after a merge).
    @raise Invalid_argument if the target is not [Unfixed]. *)

(** {1 Snapshots}

    The serialisable projection of the structure, used by batch-repair
    checkpoints.  A snapshot captures, per class: root, target,
    representative, union rank and the member list {e in its exact
    order} — rank and member order are what make decisions replay
    identically after {!restore} (future unions pick the same surviving
    root; member folds visit cells in the same sequence). *)

type class_state = {
  cls_root : int;
  cls_target : target;
  cls_repr : Value.t;
  cls_rank : int;
  cls_members : (int * int) list;  (** exact order preserved *)
}

type snapshot = { snap_arity : int; snap_classes : class_state list }

val snapshot : t -> snapshot
(** Classes in ascending root order, as {!iter_roots} visits them. *)

val restore :
  original:(tid:int -> attr:int -> Value.t) -> snapshot -> t
(** Rebuild a structure answering every query ([find], [target],
    [effective], [members], …) exactly as the snapshotted one did, with
    all parent chains fully compressed. *)
