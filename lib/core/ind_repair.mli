(** Repairing with CFDs {e and} inclusion dependencies — the paper's future
    work ("we are investigating effective methods for improving the
    consistency and accuracy of the data based on both CFDs and inclusion
    dependencies"), following the repair moves of Bohannon et al. [5].

    The algorithm interleaves, for a bounded number of rounds:

    + per-relation CFD repair (BATCHREPAIR);
    + IND resolution: each dangling reference is either {e redirected} to
      the nearest existing referenced key (Damerau–Levenshtein cost over
      the key attributes, weighted by the referencing cells' confidence)
      or {e satisfied by insertion} of a new referenced tuple carrying the
      key and nulls elsewhere — whichever is cheaper.

    Each move is one of the paper's repair primitives (value modification;
    tuple insertion, which is sound for INDs though not for CFDs), and
    inserted nulls are exempt from both constraint classes, so rounds
    monotonically shrink the violation set in the common case.  Like
    everything else in this repo the combination is heuristic: the final
    database is re-checked and the outcome reported rather than assumed. *)

open Dq_relation

type config = {
  max_rounds : int;  (** CFD/IND interleavings (default 4) *)
  insertion_cost_per_null : float;
      (** cost charged per null attribute of an inserted referenced tuple,
          traded against the cost of redirecting the reference
          (default 0.5) *)
  max_key_scan : int;
      (** candidate referenced keys examined per dangling reference when
          searching for the nearest redirect target (default 4096).  Keys
          are examined in insertion order, the referenced relation's
          first, and the first of equally near keys wins. *)
}

val default_config : ?max_rounds:int -> ?insertion_cost_per_null:float -> unit -> config

type stats = {
  rounds : int;
  cells_modified : int;  (** via CFD repair and redirects *)
  tuples_inserted : int;
  cfds_satisfied : bool;  (** final check *)
  inds_satisfied : bool;  (** final check *)
  runtime : float;
}

val pp_stats : Format.formatter -> stats -> unit

val repair :
  ?config:config ->
  Database.t ->
  cfds:(string * Dq_cfd.Cfd.t array) list ->
  inds:Dq_cfd.Ind.t list ->
  Database.t * stats
(** Repair a copy of the database against per-relation CFD sets and
    cross-relation INDs.  Relations named in [cfds] or [inds] must exist.
    @raise Invalid_argument otherwise. *)
