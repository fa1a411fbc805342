(** The uniform structured report every engine entry point returns
    alongside its value.

    A report has four parts:

    - [engine] — which algorithm produced it;
    - [summary] — the engine's deterministic result statistics, as an
      ordered association list of JSON values.  Stable under [--jobs]:
      two runs of the same input must produce equal summaries at any job
      count;
    - [phases] — per-phase seconds, in execution order, each the
      duration of one [Trace.span ~phases] (monotonic clock).  Timing is
      measurement, not result: phases are {e excluded} from {!equal} and
      from {!stable_json};
    - [provenance] — the cell-level trail ({!Provenance}), {e included}
      in equality: the sequence of repair decisions is part of the
      result's contract, not an implementation detail.

    {!to_json} keeps a fixed field order, so serialised reports are
    byte-comparable once timing fields are stripped — which is exactly
    what {!stable_json} does.  A report is data: the engines time their
    phases with {!Trace.span}[ ~phases]. *)

type degraded = { reason : string; progress : float }
(** Why a run was cut short (e.g. ["deadline"]) and roughly how much of
    the work had been done, as a fraction in [\[0, 1\]] — defined per
    engine (batch: share of repair steps known at the cut; inc: share
    of tuples resolved). *)

type t = {
  engine : string;
  summary : (string * Json.t) list;
  phases : (string * float) list;
      (** seconds per phase, execution order, from {!Trace.span} *)
  provenance : Provenance.entry list;
  degraded : degraded option;
      (** [Some _] when the engine stopped early (deadline) and the
          value alongside this report is best-so-far, not final *)
}

val make :
  engine:string ->
  ?summary:(string * Json.t) list ->
  ?phases:(string * float) list ->
  ?provenance:Provenance.entry list ->
  ?degraded:degraded ->
  unit ->
  t

val equal : t -> t -> bool
(** Engine, summary, provenance and degraded must agree; phases
    (timing) are ignored. *)

val to_json : t -> Json.t
(** Field order: [engine, summary, phases, provenance], then — only on
    degraded runs, so undegraded output is byte-identical to what it
    was before the field existed — [degraded, degraded_reason,
    progress]. *)

val stable_json : t -> Json.t
(** {!to_json} without the [phases] field: a byte-identical-across-jobs
    projection, the one compared in tests. *)
