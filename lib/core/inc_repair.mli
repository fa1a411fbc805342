(** INCREPAIR (Section 5, Figure 6): incremental repairing, plus its
    Section-5.3 application to whole-database (non-incremental) repair.

    Given a clean database [D] and insertions [ΔD], each tuple is repaired
    by {!Tuple_resolve} in some order and added to the repair, so that the
    growing repair supplies ever more context for later tuples.
    {!insert} grows a caller's relation in place through a kept
    {!Tuple_resolve.env}; {!repair_inserts} and {!repair_dirty} run it
    over a fresh relation and leave their inputs unmodified.  Deletions
    never create violations and need no repairing (Section 3.3).

    The processing {e ordering} matters for quality (Section 5.2):
    - {!Linear} (L-INCREPAIR): the given order, no extra cost;
    - {!By_violations} (V-INCREPAIR): ascending [vio(t)], so the most
      trustworthy tuples enter the repair first;
    - {!By_weight} (W-INCREPAIR): descending total tuple weight [wt(t)].

    The optional [pool] parallelises the violation-counting passes
    ({!Dq_cfd.Violation.vio_counts} inside V-INCREPAIR ordering and
    {!consistent_core}); the repair loop itself is inherently sequential
    — each tuple is resolved against the repair built so far — so
    repairs are byte-identical at any job count.  {!insert} takes no
    pool: a serve session runs it as one job on the daemon's pool, and a
    job never submits to the pool it runs on. *)

open Dq_relation

type ordering = Linear | By_violations | By_weight

val ordering_name : ordering -> string

type stats = {
  tuples_processed : int;
  tuples_changed : int;  (** tuples the resolver modified *)
  cells_changed : int;
  nulls_introduced : int;
  runtime : float;
      (** seconds on {!Dq_fault.Clock} from entry to return, consistent
          core included; the report's phases lie inside it *)
}

val pp_stats : Format.formatter -> stats -> unit

val stats_line : ordering -> stats -> string
(** ["L-IncRepair: processed=… changed=…"]: the ordering's name and
    {!pp_stats}, the line the CLI prints and serve returns. *)

val insert :
  ?ordering:ordering ->
  ?deadline:Dq_fault.Deadline.t ->
  Tuple_resolve.env ->
  Tuple.t list ->
  (stats * Dq_obs.Report.t, Dq_error.t) result
(** [insert env delta] repairs [delta] into the environment's relation
    in place, appending each tuple after the ones it already holds, and
    keeps [env] valid for the next call.  This is the loop every entry
    point below runs.  A serve session keeps one environment across
    batches, so a batch costs O(|ΔD|) resolution steps rather than a
    rebuild of the indices over the whole relation.

    The relation must satisfy [sigma]; delta tids must be fresh, else
    [Error (Invalid_input _)] and nothing is added.  [deadline] behaves
    as in {!repair_inserts}: after a cut the rest of the delta is
    appended unrepaired, and a cut before the first tuple still appends
    the whole delta before returning [Error Deadline_exceeded].  On any
    [Error], a degraded report or an exception (a [resolve.tuple]
    fault), the relation may hold some of the delta: the caller undoes
    that by deleting the newest tuples through {!Tuple_resolve.delete},
    which keeps [env] valid. *)

val repair_inserts :
  ?pool:Dq_parallel.Pool.t ->
  ?k:int ->
  ?max_candidates:int ->
  ?use_cluster_index:bool ->
  ?ordering:ordering ->
  ?deadline:Dq_fault.Deadline.t ->
  Relation.t ->
  Tuple.t list ->
  Dq_cfd.Cfd.t array ->
  ((Relation.t * stats) * Dq_obs.Report.t, Dq_error.t) result
(** [repair_inserts d delta sigma] assumes [d |= sigma] and returns a fresh
    relation [d ⊕ ΔD_repr] satisfying [sigma], leaving [d]'s tuples
    untouched: it runs {!insert} over one copy of [d] and a new
    environment.  It returns statistics and a {!Dq_obs.Report.t} whose
    provenance trail holds one entry per changed cell of the repaired
    insertions — replaying it over [d ⊕ ΔD] reconstructs the repair.
    The tuples of [delta] must carry tids distinct from [d]'s and from each
    other, else [Error (Invalid_input _)].  Default ordering is
    {!By_violations}.

    [deadline] is checked before each tuple: once expired, the remaining
    delta tuples are added {e unrepaired} (no provenance entries, not
    counted in [tuples_processed]) and the report carries
    [degraded = Some _] with [progress] = the fraction of delta tuples
    actually resolved.  The degraded result is complete but may still
    violate [sigma].  If the deadline expires before the first tuple (or
    during the ordering scan), nothing was repaired and the result is
    [Error Deadline_exceeded]. *)

val consistent_core :
  ?pool:Dq_parallel.Pool.t ->
  ?deadline:Dq_fault.Deadline.t ->
  Relation.t ->
  Dq_cfd.Cfd.t array ->
  int list
(** Tids of tuples involved in no violation — the efficiently computable
    stand-in for a maximal consistent subset (finding a truly maximal one
    is NP-hard, Proposition 5.4).  An expired [deadline] raises
    [Dq_fault.Deadline.Expired]. *)

val repair_dirty :
  ?pool:Dq_parallel.Pool.t ->
  ?k:int ->
  ?max_candidates:int ->
  ?use_cluster_index:bool ->
  ?ordering:ordering ->
  ?deadline:Dq_fault.Deadline.t ->
  Relation.t ->
  Dq_cfd.Cfd.t array ->
  ((Relation.t * stats) * Dq_obs.Report.t, Dq_error.t) result
(** Section 5.3: repair a dirty database with INCREPAIR by extracting the
    consistent core and re-inserting the remaining tuples one at a time.
    The report's phases additionally carry the consistent-core pass.
    [deadline] behaves as in {!repair_inserts} (a cut during the core
    extraction itself returns [Error Deadline_exceeded]). *)
