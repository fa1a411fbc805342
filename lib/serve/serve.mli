(** The streaming repair daemon behind [cfdclean serve].

    An HTTP/1.1 JSON API over versioned envelopes ({!Dq_obs.Envelope},
    [v = 2]).  Endpoints:

    - [GET /v1/health] — liveness, version, uptime, session count,
      checkpoint state-dir status, engine registry;
    - [GET /v1/metrics] — Prometheus text exposition (no envelope);
    - [POST /v1/sessions] — create a session from a schema, a ruleset
      and an ingest-capable engine (gated like the CLI: lint errors,
      termination verdict, satisfiability, engine fragment);
    - [GET /v1/sessions], [GET /v1/sessions/ID],
      [DELETE /v1/sessions/ID];
    - [POST /v1/sessions/ID/tuples] — ingest a batch; unrepairable
      tuples are quarantined, not failed (see {!Session});
    - [POST /v1/sessions/ID/resume] — close a session's circuit
      breaker after repeated engine faults quarantined it;
    - [GET /v1/sessions/ID/relation] — the clean relation as CSV;
    - [GET /v1/sessions/ID/quarantine],
      [POST /v1/sessions/ID/quarantine/TID/resolve].

    Each session owns a FIFO ingest {e lane} (see {!Session}): batches
    for one session commit in arrival order while independent sessions
    repair concurrently — and, with [ingest_workers], in parallel on
    worker domains ({!Dq_parallel.Pool.exec}, the daemon's one pool).
    A [DELETE] waits for the session's running job, and a job still
    queued on a deleted session's lane answers 404 and commits nothing.
    A per-request [x-deadline-seconds] header arms a
    cooperative {!Dq_fault.Deadline}; an expired one maps to HTTP 504
    with nothing committed.  With a state directory every committed
    mutation is checkpointed ({!Store}) {e before} the 200 goes out, so
    [kill -9] + restart with [resume] serves byte-identical relations.

    The daemon has one wire format.  {!start} registers its instruments
    in the process-wide {!Dq_obs.Metrics} registry (request counters and
    latency histograms per route, session, quarantine and GC gauges,
    checkpoint and ingest histograms).  Every response carries
    an [x-request-id] header, equal to the envelope's [id]: the client's
    own, sanitised, or a generated one.  Every session status carries
    [state] and [engine_faults].  Structured logging goes through
    {!Dq_obs.Log}, and the process (the CLI's [serve] subcommand, or a
    test) decides whether a sink is installed.

    Overload behavior is governed by {!limits}: a full lane answers 429
    with [retry-after]; the in-flight and connection ceilings answer
    503 (health and metrics stay exempt so an overloaded daemon remains
    observable); {!stop} drains gracefully — in-flight and lane-queued
    work finishes, new requests get 503 + [connection: close] — bounded
    by [drain_timeout_s].  With {!default_limits} all of it is off. *)

val version : string
(** The version string /v1/health reports (keep in sync with the CLI's
    man-page version). *)

(** Overload limits.  Every field's zero/false value means {e off}; with
    {!default_limits} the daemon serves one request per connection with
    unbounded admission, no timeouts, no breaker and no eviction, and
    performs no extra syscalls on the request path. *)
type limits = {
  max_connections : int;
      (** refuse (503, no handler thread) connections past this many
          concurrently open ones; 0 = unbounded *)
  max_inflight : int;
      (** answer 503 past this many requests in flight; [/v1/health]
          and [/v1/metrics] are exempt; 0 = unbounded *)
  queue_depth : int;
      (** shed (429 + [retry-after]) ingest/resolve when the session's
          lane already holds this many jobs; 0 = unbounded *)
  ingest_workers : int;
      (** worker domains running whole ingest and resolve jobs, giving
          independent sessions CPU parallelism; 0 = run on the handler
          thread.  They are the daemon's only domains besides the main
          one, spawned at the first job. *)
  keep_alive : bool;
      (** HTTP/1.1 persistent connections (default: close after one
          response, the historical framing) *)
  idle_timeout_s : float;
      (** with [keep_alive], close a connection idle between requests
          this long *)
  read_timeout_s : float;
      (** bound every socket read within a request (slowloris defense:
          a stalled mid-request peer gets 408); 0 = no bound *)
  evict_idle_s : float;
      (** checkpoint and drop sessions idle this long (requires a state
          directory; the next request reloads transparently); 0 = never *)
  breaker_threshold : int;
      (** quarantine a session ([engine_failed], 503) after this many
          consecutive engine faults, until [POST .../resume]; 0 = off
          (faults are still counted in [engine_faults]) *)
  drain_timeout_s : float;
      (** {!stop}: bound on waiting for in-flight work before
          force-closing straggler connections *)
}

val default_limits : limits
(** Everything off; [idle_timeout_s = 5.] (used only with
    [keep_alive]), [drain_timeout_s = 30.]. *)

type config = {
  port : int;  (** 0 picks an ephemeral port (tests) *)
  state_dir : string option;  (** checkpoint directory; [None] = in-memory *)
  resume : bool;  (** load sessions back from [state_dir] on start *)
  slow_request_s : float option;
      (** warn-log any request slower than this many seconds *)
  limits : limits;
}

type t
(** A running daemon. *)

val start : config -> (t, Dq_error.t) result
(** Bind [127.0.0.1], load checkpointed sessions when [resume],
    register the daemon's instruments, and begin accepting in a
    background thread.  Invalid
    limits (negative values, idle eviction without a state directory)
    are refused. *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val wait : t -> unit
(** Block until the daemon is stopped. *)

val stop : t -> unit
(** Graceful drain: stop accepting, answer new requests 503 +
    [connection: close], let in-flight and lane-queued work finish
    (bounded by [drain_timeout_s], then force-close stragglers), join
    the handler threads, checkpoint every session, shut the pool
    down.  Idempotent; concurrent calls return without a second
    drain. *)

val status_of_error : Dq_error.t -> int
(** The HTTP status a {!Dq_error.t} maps to (404 for
    [No_such_session], 400 for the input family, 422 for gated
    refusals, 429 for a full lane, 503 for unavailability and an open
    breaker, 504 for a deadline, 500 otherwise). *)
