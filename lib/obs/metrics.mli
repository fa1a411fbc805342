(** Named monotonic counters, duration timers, gauges and log-bucketed
    histograms.

    A process-wide registry, disabled by default: every recording
    operation first reads one atomic flag and returns immediately when
    collection is off, so instrumented hot paths pay (almost) nothing
    unless the user asked for metrics ([--metrics FILE] in the CLI,
    the serve daemon, or {!set_enabled} in a library embedding).

    Handles are created once — at module-initialisation time by the
    instrumented modules themselves ([let m = Metrics.counter "x.y"] at
    top level), or on demand for labeled instruments (the serve daemon
    registers one [serve.requests] counter per (route, status) pair as
    traffic arrives).  Creating a handle registers the name, so
    {!snapshot} and {!to_prometheus} report every instrument the process
    carries even when its value is zero.  Recording is domain-safe:
    counters are atomics, everything else takes a per-handle mutex —
    both are touched by {!Dq_parallel.Pool} workers.

    Labels: instruments of the same name with different label sets are
    different instruments of one {e family}; label order is
    canonicalised at registration, so [[("a", "1"); ("b", "2")]] and its
    permutation name the same handle.

    Metrics are {e observability, not results}: they are cumulative per
    process, timing dependent, and deliberately excluded from report
    equality (see {!Report}). *)

type counter

type timer

type gauge

type histogram

val set_enabled : bool -> unit
(** Turn collection on or off (off initially). *)

val enabled : unit -> bool

val set_strict : bool -> unit
(** In strict mode (the test suite, debug builds) a negative {!add}
    raises [Invalid_argument]; otherwise it is clamped to a no-op —
    counters are monotonic either way.  Off initially. *)

val counter : ?labels:(string * string) list -> string -> counter
(** Register (or retrieve) the named monotonic counter. *)

val add : counter -> int -> unit
(** No-op when disabled.  [n] must be non-negative (counters are
    monotonic): a negative [n] raises [Invalid_argument] under
    {!set_strict}, and is ignored otherwise. *)

val incr : counter -> unit

val counter_value : counter -> int

val timer : ?labels:(string * string) list -> string -> timer
(** Register (or retrieve) the named duration timer. *)

val record : timer -> float -> unit
(** Record one duration, in seconds.  No-op when disabled. *)

val time : timer -> (unit -> 'a) -> 'a
(** Run the thunk, recording its duration on {!Dq_fault.Clock} when
    enabled (also on exceptional exit).  When disabled the thunk is
    called directly — no clock reads.  A region that is also a span is
    timed by [Trace.span ~timer] instead, which reads the clock once for
    the span and the timer; [time] is for regions with no span: the
    pool's utilisation timers and the daemon's checkpoint writes. *)

val gauge : ?labels:(string * string) list -> string -> gauge
(** Register (or retrieve) the named gauge — a value that can go up and
    down (live sessions, quarantine depth, GC words). *)

val set_gauge : gauge -> float -> unit
(** Overwrite the gauge.  No-op when disabled. *)

val add_gauge : gauge -> float -> unit
(** Adjust the gauge by a (possibly negative) delta.  No-op when
    disabled. *)

val gauge_value : gauge -> float

val latency_buckets : float array
(** The default histogram bounds: a log-spaced 1-2.5-5 ladder from
    100µs to 10s. *)

val size_buckets : float array
(** Log-spaced bounds from 1 to 1M, for batch sizes and byte counts. *)

val histogram :
  ?labels:(string * string) list -> ?buckets:float array -> string -> histogram
(** Register (or retrieve) the named histogram.  [buckets] are the
    upper bounds of the finite buckets, strictly increasing; an
    implicit [+Inf] bucket catches the rest.  Defaults to
    {!latency_buckets}. *)

val observe : histogram -> float -> unit
(** Record one observation.  No-op when disabled. *)

val histogram_count : histogram -> int

val reset : unit -> unit
(** Zero every registered instrument (handles stay valid). *)

val snapshot : unit -> Json.t
(** The registry as one JSON object with four fields — ["counters"],
    ["timers"], ["gauges"], ["histograms"] — each sorted by instrument
    name (labels rendered into the name).  A counter renders as its
    integer value; a timer as [{count, total_s, min_s, max_s}]; a gauge
    as its float value; a histogram as [{count, sum}]. *)

val to_prometheus : ?prefix:string -> unit -> string
(** The registry in Prometheus text exposition format.  Families are
    named [cfdclean_<instrument name with non-alphanumerics mangled to
    _>]; counters gain a [_total] suffix, timers render as summaries
    under [<family>_seconds] with [_sum]/[_count] samples, histograms
    as cumulative [_bucket{le="..."}] series plus [_sum]/[_count].
    Output is sorted by family name then label set, so two scrapes of
    the same registry state are byte-identical.  [prefix] restricts the
    exposition to instruments whose (unmangled) name starts with it —
    the golden tests use this to keep the rest of the registry out of
    the comparison. *)
