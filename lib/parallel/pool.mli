(** A hand-rolled, dependency-free domain pool for OCaml 5, and the
    tree's only one.

    The switch carries no [domainslib], so this module provides the small
    slice of it the cleaning algorithms and the daemon need: a persistent
    pool of worker domains with two lanes onto one task queue.

    - {b Chunked batches}: {!run}, {!map_reduce} and the [?pool]
      conveniences ({!for_chunks}, {!map_chunks}, {!map_array}).  The CLI
      creates one pool per command ({!with_pool} at [--jobs]) and passes
      it to [Engine.ctx], [Violation]'s scans and [Discovery.discover].
      {!map_reduce} folds chunk results {e in chunk-index order}, never
      completion order, so anything built on it returns byte-identical
      results at any job count.  The caller helps drain the queue while
      it waits, so a pool of [jobs = n] runs a batch on [n] domains.
    - {b Whole jobs}: {!exec} runs one job on a worker domain and blocks
      the calling thread until it returns.  The serve daemon creates one
      pool of [--ingest-workers + 1] jobs and runs each ingest or resolve
      job through it, so sessions repair in parallel even though their
      connection handlers are systhreads sharing one runtime lock.

    A pool with [jobs = 1] spawns no domains and runs everything in the
    calling domain, making the sequential path literally the same code as
    the parallel one.  A larger pool spawns its [jobs - 1] workers at its
    first batch of two or more tasks or its first {!exec} job, so a holder
    that submits neither costs no domains.

    Nothing that runs on the pool may submit to it again: a task or an
    {!exec} job must not call {!run}, {!map_reduce}, a [?pool]
    convenience or {!exec} on its own pool.  [exec] from inside a task
    or job blocks a worker on a job only another worker can run, which
    deadlocks once every worker waits so.  The daemon's jobs take no
    pool, so none of its work nests.  Anything tasks touch concurrently
    must be read-only or chunk-private — the intended style is: map
    chunk-private state, then merge sequentially.

    When {!Dq_obs.Metrics} collection is enabled, every {!run} batch
    records the instruments [pool.batches], [pool.tasks],
    [pool.batch_wall] (wall seconds per batch) and [pool.task_busy]
    (per-task busy seconds summed across domains) — utilization over a
    window is [busy / (wall * jobs)].  With metrics disabled (the
    default) the pool takes one atomic read per batch and nothing else.
    {!exec} jobs record none of these and pass no fault site. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the CLI's default for
    [--jobs]. *)

val create : jobs:int -> t
(** A pool of [jobs] domains ([jobs - 1] workers, spawned by the first
    {!run} of two or more tasks or the first {!exec} job; the caller is
    the last).
    @raise Invalid_argument if [jobs < 1]. *)

val shutdown : t -> unit
(** Finish the queued tasks and jobs, then join the worker domains, if
    any were spawned.  Idempotent.  Later {!exec} jobs run inline.
    Outstanding batches must have completed (every [run] returns only
    once its tasks are done, so this only matters for exceptional control
    flow). *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] — even on exceptions.  [jobs] defaults to
    {!default_jobs}. *)

val run : ?deadline:Dq_fault.Deadline.t -> t -> (unit -> unit) array -> unit
(** Execute every task, in parallel, returning once all have finished.

    {b First-failure-wins}: if tasks raise, exactly one exception — the
    first to be recorded — is re-raised in the caller {e with the
    raising task's backtrace}, and only after the whole batch has
    drained (remaining tasks still run; none are interrupted, so the
    pool is left quiescent and reusable).  With [jobs = 1] "first" is
    first in task order; with more jobs it is first in wall-clock
    completion order.  A raising or stalling task can therefore never
    hang the batch: the other tasks finish, then the caller sees the
    failure.

    [deadline] cancels cooperatively: tasks that have not started when
    it expires are skipped (the batch still drains) and
    [Dq_fault.Deadline.Expired] is raised in the caller; a task already
    running always completes.  When a fault plan is armed, every task
    is wrapped in the ["pool.task"] fault site. *)

val ranges : chunks:int -> int -> (int * int) list
(** [ranges ~chunks n] splits [0, n) into at most [chunks] contiguous
    [(lo, hi)] half-open ranges, in order, sizes differing by at most
    one.  [n = 0] yields [[]]. *)

val exec : t -> (unit -> 'a) -> 'a
(** [exec pool f] runs the whole job [f] on a worker domain and blocks
    the calling thread (not just its domain) until [f] returns, then
    returns its result.  Jobs from concurrent callers run on different
    workers at once, up to [jobs - 1] of them; the rest wait in the
    queue in submission order.

    - An exception re-raises in the caller with the job's backtrace.
    - [f] runs inline in the caller on a 1-job pool and on a pool that
      has been shut down, so a job admitted before a drain is never lost.
    - [f] sees the submitter's {!Dq_obs.Trace} context, so its spans nest
      under the span that called [exec].

    Must not be called from inside a pool task or job (see the module
    header). *)

val map_reduce :
  ?deadline:Dq_fault.Deadline.t ->
  t ->
  ?chunks:int ->
  n:int ->
  map:(int -> int -> 'a) ->
  fold:('acc -> 'a -> 'acc) ->
  init:'acc ->
  'acc
(** [map lo hi] runs once per chunk, in parallel; the chunk results are
    then folded {e sequentially, in chunk-index order} in the calling
    domain.  Chunk boundaries are a pure function of [n] and [chunks],
    so the fold sequence — and hence the result — is deterministic. *)

(** {1 [?pool]-threading conveniences}

    Call sites take a [?pool:t] optional argument; [None] (or a 1-job
    pool, or a trivially small [n]) runs the identical code on a single
    chunk in the calling domain.

    With a [?label] and {!Dq_obs.Trace} collection enabled, every chunk
    runs inside a span of that name ([cat = "pool"], [args] carrying the
    chunk's [lo]/[hi] bounds) on whichever domain executes it — this is
    what renders worker lanes in a trace viewer.  The spans appear on
    the sequential path too (one chunk), so the {e set} of span paths a
    computation produces does not depend on the job count. *)

val for_chunks :
  ?deadline:Dq_fault.Deadline.t ->
  ?chunks:int ->
  ?label:string ->
  t option ->
  n:int ->
  (int -> int -> unit) ->
  unit
(** Run [f lo hi] over the ranges of [0, n); sequentially as [f 0 n]
    when no parallelism applies.  An expired [deadline] raises
    [Dq_fault.Deadline.Expired] on both paths. *)

val map_chunks :
  ?deadline:Dq_fault.Deadline.t ->
  ?chunks:int ->
  ?label:string ->
  t option ->
  n:int ->
  (int -> int -> 'a) ->
  'a list
(** Chunk results in chunk-index order; [[map 0 n]] when sequential
    (and [[]] when [n = 0]). *)

val map_array :
  ?deadline:Dq_fault.Deadline.t ->
  ?chunks:int ->
  ?label:string ->
  t option ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** Element-wise map preserving positions.  Elements of a chunk are
    evaluated in index order within their domain. *)
