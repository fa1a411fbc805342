(** Hierarchical span tracing in Chrome trace-event form, and the one
    way the library times a region.

    Where {!Metrics} aggregates (how many merges, total seconds in a
    phase), a trace keeps every occurrence: a {e span} is one timed
    interval with a name, a category, the thread it ran on, and optional
    arguments (tuple and clause counts, pass numbers).  Spans nest — the
    engines open one around each {!Report} phase and finer-grained ones
    inside the hot paths (per resolution pass and per equivalence-class
    merge in BATCHREPAIR, per [TUPLERESOLVE] in INCREPAIR, per worker
    chunk inside {!Dq_parallel.Pool}) — so loading the dump in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto} shows
    where a repair's time actually goes, with [--jobs n] rendering as
    [n] parallel lanes.

    {2 One duration, three consumers}

    {!span} reads {!Dq_fault.Clock.now} once on entry and once on exit.
    That one duration goes to the B/E events when tracing is on, to a
    {!Metrics.timer} when [?timer] is passed, and to a report's phase
    list when [?phases] is, so a phase's seconds, its timer's total and
    its trace interval are the same number.  With tracing off and
    neither [?timer] nor [?phases], a span is a read of the tracing flag
    and a direct call.  Tracing is switched on by [--trace FILE] in the
    CLI and the bench harness.

    {2 Lanes}

    Each systhread has its own span stack and its own lane (the event's
    [tid] is its [Thread.id]): the daemon's connection handlers share a
    domain, and concurrent requests must not nest inside each other.
    {!Dq_parallel.Pool} carries the submitter's stack to the thread that
    runs a task or job ({!current_context}, {!with_context}).

    {2 Determinism contract}

    Span {e names and nesting} are part of the engines' deterministic
    surface: the set of distinct span paths (see {!type:event}[.path])
    produced by a run is identical at any [--jobs] count.  Timestamps,
    durations, event multiplicities of worker-chunk spans (one per
    chunk) and thread ids are measurement and vary run to run — the
    same split {!Report.stable_json} makes for reports. *)

type context
(** The calling thread's current span stack.  {!Dq_parallel.Pool}
    captures it when a batch or job is submitted and installs it on the
    thread that runs the work, so a chunk span's logical parent is the
    span that submitted the batch even though it runs on another lane. *)

type event = {
  ph : [ `B | `E ];  (** span begin / span end *)
  name : string;
  cat : string;
  ts : float;  (** microseconds since the trace was enabled/cleared *)
  tid : int;  (** [Thread.id] of the thread the span ran on: its lane *)
  path : string list;
      (** enclosing span names, outermost first, ending with this span's
          own name — the logical position in the span tree, independent
          of which lane the span landed on *)
  args : (string * Json.t) list;  (** on [`B] events; [[]] on [`E] *)
}

val set_enabled : bool -> unit
(** Turn collection on or off (off initially).  Turning it on resets the
    timestamp origin. *)

val enabled : unit -> bool

val clear : unit -> unit
(** Drop all buffered events and reset the timestamp origin. *)

val span :
  ?cat:string ->
  ?args:(unit -> (string * Json.t) list) ->
  ?timer:Metrics.timer ->
  ?phases:(string * float) list ref ->
  string ->
  (unit -> 'a) ->
  'a
(** [span name f] runs [f] inside a span, timed once as above;
    [phases] gets [(name, seconds)] appended, which is how engines build
    a {!Report}'s phase list in execution order.  [args] is a thunk, so
    argument construction costs nothing unless a trace is being taken.
    All three records are made even on exceptional exit. *)

val current_context : unit -> context

val with_context : context -> (unit -> 'a) -> 'a
(** Run the thunk with the given span stack installed on this thread
    (restored afterwards) — how pool workers inherit their submitter's
    position in the span tree.  With tracing off, {!current_context} is
    empty and this is a direct call: neither touches the shared table of
    stacks. *)

val events : unit -> event list
(** Buffered events in emission order.  The subsequence of any one [tid]
    (thread) is properly nested (B/E balance like brackets); the test
    suite's well-formedness checks run on this view. *)

val to_json : unit -> Json.t
(** The buffer in Chrome trace-event JSON object form:
    [{"traceEvents": [{"cat", "name", "ph", "ts", "pid", "tid",
    "args"}, ...], "displayTimeUnit": "ms"}] — loadable directly in
    [chrome://tracing] and Perfetto. *)

val write : string -> unit
(** Dump {!to_json} to a file.  @raise Sys_error on I/O failure. *)
