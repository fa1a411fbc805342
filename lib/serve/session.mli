(** One serve session: a clean relation kept consistent with a fixed
    ruleset Σ while tuple batches stream in.

    A session is created from a schema, a ruleset and an engine name
    (the engine's {!Dq_engine.Engine.ENGINE.ingest} must name an
    ordering, resolved once at creation and at restore); creation runs
    the same gates as the CLI — lint errors, the Σ-interaction
    termination verdict, satisfiability — so a session that exists is
    one whose ingest path is safe to run unattended.

    Ingest repairs each batch straight into the relation with
    {!Dq_core.Inc_repair.insert}, through one INCREPAIR environment
    ({!Dq_core.Tuple_resolve.env}: LHS-indices and cluster cache) the
    session keeps across batches.  Tuples the repair could settle join
    the relation (possibly modified); tuples the repair could only
    settle by introducing nulls — the paper's "no certain value"
    outcome — are {e quarantined} instead: removed from the relation
    (deletions never introduce violations, Section 3.3) and held aside
    in submitted form for a later {!resolve}.  The batch as a whole
    still succeeds.

    The kept environment always equals [make_env] over the relation in
    insertion order.  Growth keeps it so, and so does every deletion (a
    quarantine, a refused replacement, a cut or failed batch, a
    rollback), which goes through {!Dq_core.Tuple_resolve.delete}.  The
    first batch after creation builds it; a reloaded or evicted session
    starts without one and its next batch builds it again.  Since it
    depends only on the relation's tuples, a restart repairs the next
    batch exactly as the live session would have.

    All mutation happens under the session's lock via {!with_lock};
    the relation invariant between batches is [relation |= Σ]. *)

open Dq_relation
open Dq_cfd

type quarantined = {
  tuple : Tuple.t;  (** the tuple as submitted, tid already assigned *)
  attrs : int list;  (** positions the repair could only null, ascending *)
  batch : int;  (** 1-based ingest batch it arrived in *)
}

(** What the session's next checkpoint ({!Store.save}) must write. *)
type checkpoint =
  | Unsaved
      (** nothing of this session is on disk yet: write a snapshot, and
          treat a journal found under its id as stale *)
  | Snapshot_due
      (** write a snapshot: the journal may end in a torn record *)
  | Journal of journal
      (** append what changed since the last checkpoint to the journal,
          or compact it into a snapshot once it outgrows the last one *)

and journal = {
  snapshot_bytes : int;  (** size of the snapshot on disk *)
  journal_bytes : int;  (** size of the journal on disk *)
  covered : int;  (** the last mutation ({!field-seq}) on disk *)
  added : Tuple.t list;
      (** rows appended to the relation since then, newest first *)
  queued : quarantined list;
      (** quarantine entries added since then, newest first *)
  dropped : int list;  (** tids dropped from the quarantine since then *)
}

(* Mutable fields are protected by [lock]; hold it (via {!with_lock})
   around any read-modify-write, including {!Store.save}. *)
type t = {
  id : string;
  schema : Schema.t;
  rules : string;  (** ruleset source text, persisted verbatim *)
  sigma : Cfd.t array;
  engine : string;
  ordering : Dq_core.Inc_repair.ordering;  (** the engine's, resolved once *)
  relation : Relation.t;
      (** grows in place; a batch that does not commit is undone *)
  mutable env : Dq_core.Tuple_resolve.env option;
      (** the INCREPAIR environment over [relation], or [None] until the
          first batch after creation or reload builds it *)
  mutable next_tid : int;
  mutable quarantine : quarantined list;  (** oldest first *)
  mutable batches : int;  (** ingest batches committed *)
  mutable repaired : int;  (** ingested tuples the repair modified *)
  mutable quarantined_total : int;
  mutable resolved : int;  (** quarantine entries resolved (either way) *)
  mutable seq : int;  (** mutations committed over the session's life *)
  mutable checkpoint : checkpoint;
      (** bookkeeping for {!Store}: every committed mutation bumps [seq]
          and, in the [Journal] state, adds what it changed *)
  lock : Mutex.t;
  lane_lock : Mutex.t;  (** guards the lane ticket counters *)
  lane_turn : Condition.t;
  mutable lane_next : int;  (** next lane ticket to hand out *)
  mutable lane_serving : int;  (** ticket currently allowed to run *)
  mutable last_touch : float;
      (** wall clock of the last request naming this session (daemon
          idle-eviction bookkeeping) *)
  mutable pins : int;
      (** handlers currently holding a reference (guarded by the
          daemon's registry lock; a pinned session is never evicted) *)
  mutable engine_faults : int;
      (** consecutive engine faults (breaker input; under [lock]) *)
  mutable breaker_open : bool;
      (** circuit breaker: when set, ingest/resolve are refused until
          an operator resumes the session (under [lock]) *)
}

val create :
  id:string ->
  schema_name:string ->
  attributes:string list ->
  rules:string ->
  engine:string ->
  ?force:bool ->
  unit ->
  (t, Dq_error.t) result
(** Gate and build a fresh session.  [force] (default false) skips the
    lint and termination gates, mirroring the CLI's [--force]. *)

val restore :
  id:string ->
  schema_name:string ->
  attributes:string list ->
  rules:string ->
  engine:string ->
  relation:Relation.t ->
  next_tid:int ->
  quarantine:quarantined list ->
  batches:int ->
  repaired:int ->
  quarantined_total:int ->
  resolved:int ->
  seq:int ->
  (t, Dq_error.t) result
(** Rebuild a session from checkpointed state ({!Store}).  Re-resolves
    the ruleset but skips the creation gates — they passed when the
    session was first created.  Its [checkpoint] is [Snapshot_due]. *)

val with_lock : t -> (unit -> 'a) -> 'a

(** {1 Ingest lane}

    Each session owns a FIFO {e lane}: a ticket lock that orders the
    session's repair jobs (same-session batches commit in arrival
    order) while leaving other sessions free to repair concurrently —
    the replacement for the old daemon-wide ingest queue. *)

val lane_enter : ?depth:int -> t -> bool
(** Take a lane ticket and block until it is at the head.  With
    [depth > 0], returns [false] immediately — load shed, nothing
    taken — when the lane already holds [depth] jobs (running +
    queued); [depth = 0] (default) never sheds.  Every [true] must be
    paired with {!lane_exit}. *)

val lane_exit : t -> unit

val with_lane : ?depth:int -> t -> (unit -> 'a) -> 'a option
(** [lane_enter]/[lane_exit] bracket: [None] when the lane was full. *)

val lane_depth : t -> int
(** Jobs currently in the lane (running + queued). *)

(** {1 Overload bookkeeping}

    Breaker transitions happen under the session lock; {!touch} is a
    single mutable-field write (benign to race). *)

val touch : t -> unit
(** Stamp [last_touch] with the current wall clock. *)

val breaker_ok : t -> bool

val breaker_trip : threshold:int -> t -> bool
(** Record one consecutive engine fault; [true] when this fault just
    opened the breaker ([threshold = 0] disables the breaker — faults
    are counted but never open it). *)

val breaker_note_success : t -> unit
(** An engine invocation succeeded: reset the consecutive-fault count. *)

val breaker_reset : t -> unit
(** Operator resume: close the breaker and zero the fault count. *)

(** Per-tuple ingest outcome, in submission order. *)
type outcome =
  | Clean of int  (** tid; joined the relation unchanged *)
  | Repaired of int * int  (** tid, cells changed by the repair *)
  | Quarantined of int * int list  (** tid, nulled attribute positions *)

val ingest :
  ?deadline:Dq_fault.Deadline.t ->
  ?request_id:string ->
  t ->
  (Value.t array * float array option) list ->
  (outcome list * string * Dq_obs.Report.t, Dq_error.t) result
(** Assign fresh tids to a batch and repair it into the relation.
    Commits — rows, counters, quarantine — only on full success.  A
    deadline cut ([degraded] report), an engine error or an exception
    (an armed [resolve.tuple] fault) commits nothing: the relation and
    the environment lose whatever the batch had appended, then
    [Deadline_exceeded], the error or the exception is returned.
    The string is the engine's stats line.  With a [request_id] the
    batch runs inside one [engine.request] trace span carrying it.
    Caller must hold the lock. *)

type resolution =
  | Discard  (** drop the quarantined tuple for good *)
  | Replace of Value.t array * float array option
      (** re-ingest with corrected values under the same tid *)

val resolve :
  ?deadline:Dq_fault.Deadline.t ->
  ?request_id:string ->
  t ->
  int ->
  resolution ->
  (outcome, Dq_error.t) result
(** Settle one quarantined tuple by tid.  [Replace] values that would
    quarantine again are refused ([Invalid_input]): the relation is left
    as it was and the entry stays.  An unknown tid is [Invalid_input].
    Caller must hold the lock. *)

val find_quarantined : t -> int -> quarantined option

(** {1 Undo}

    How the daemon takes back a committed mutation whose checkpoint
    failed, so that an error answer always means nothing changed. *)

type mark

val mark : t -> mark
(** The session's state before a mutation. *)

val rollback : t -> mark -> unit
(** Undo every mutation since the mark.  The relation drops the tuples
    added since (its newest), keeping the rest in order with the same
    active domains, and the environment drops them with it; the
    quarantine, the counters, [next_tid] and [seq] return to their
    marked values.  When
    a committed mutation was undone, the next checkpoint is a snapshot,
    so neither a torn journal line nor the undone mutation's pending
    journal entry reaches disk.  Caller must hold the lock. *)
