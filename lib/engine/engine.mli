(** Pluggable repair engines behind one signature.

    An engine turns a dirty relation and a ruleset Σ into a repaired
    relation plus a structured {!Dq_obs.Report.t}.  Everything an
    invocation needs — the relation, Σ, and the shared execution hooks
    (worker pool, cooperative deadline, checkpoint/resume) — travels in
    one {!type-ctx} record, built once by the caller with {!val-ctx}.
    The CLI's [repair --engine NAME], the differential test harness and
    the bench head-to-head all hand engines the same record, so no layer
    re-parses another layer's option spelling, and a new engine becomes
    a drop-in everywhere by implementing {!ENGINE} and calling
    {!register} (or joining the built-in list).  The serve daemon's sessions pick an engine by name
    and read only its {!ENGINE.ingest} ordering.

    Contract every engine must honour (what the differential suite
    checks):
    - the returned relation satisfies Σ ([Violation.total] = 0), unless
      the report is marked degraded by a deadline cut;
    - output is byte-identical at any job count;
    - the report's provenance trail replays: [Provenance.replay] over
      the dirty input reproduces the repaired relation;
    - unsupported Σ fragments are rejected up front by {!val-fragment}
      with a one-line reason, never by a wrong repair. *)

open Dq_relation
open Dq_cfd

type checkpoint_spec = { path : string; every : int }

(** The one context record shared by every engine invocation: the
    instance itself plus the execution hooks.  Engines ignore checkpoint
    hooks only after the caller has gated on {!ENGINE.supports_checkpoint}
    — the CLI refuses [--checkpoint]/[--resume] for engines that would
    silently drop them. *)
type ctx = {
  relation : Relation.t;  (** the instance to repair *)
  sigma : Cfd.t array;  (** the ruleset Σ, already resolved *)
  pool : Dq_parallel.Pool.t option;
      (** read by the inc family's violation counts; batch and opt-fd
          run on the calling domain *)
  deadline : Dq_fault.Deadline.t;
  checkpoint : checkpoint_spec option;
  resume : Dq_core.Checkpoint.t option;
}

val ctx :
  ?pool:Dq_parallel.Pool.t ->
  ?deadline:Dq_fault.Deadline.t ->
  ?checkpoint:checkpoint_spec ->
  ?resume:Dq_core.Checkpoint.t ->
  Relation.t ->
  Cfd.t array ->
  ctx
(** Build a context.  Defaults: no pool, no deadline, no checkpointing. *)

module type ENGINE = sig
  val name : string
  (** Registry name ([--engine NAME]); lowercase, stable. *)

  val doc : string
  (** One-line description for listings and docs. *)

  val supports_checkpoint : bool
  (** Whether [ctx.checkpoint]/[ctx.resume] are honoured. *)

  val ingest : Dq_core.Inc_repair.ordering option
  (** [Some ordering] when a serve session can run on this engine: the
      session keeps one {!Dq_core.Tuple_resolve.env} over its relation
      and repairs each batch into it with {!Dq_core.Inc_repair.insert}
      in this ordering.  The session, not the engine, owns that state
      and undoes a batch that does not commit.  Engines built for
      whole-relation repair (batch, opt-fd) say [None], and the daemon
      refuses sessions on them. *)

  val fragment : Schema.t -> Cfd.t array -> (unit, string) result
  (** [Ok ()] when the engine can repair this Σ; otherwise a one-line
      reason.  Callers surface failures as
      [Dq_error.Engine_unsupported] — see {!check_fragment}. *)

  val run :
    ctx -> ((Relation.t * string) * Dq_obs.Report.t, Dq_error.t) result
  (** Repair [ctx.relation] against [ctx.sigma].  The string is the
      engine's rendered stats line (what the CLI prints to stderr in
      text mode); everything machine-readable lives in the report's
      summary. *)
end

val all : unit -> (module ENGINE) list
(** Built-in engines ([batch], [inc], [l-inc], [w-inc], [opt-fd]) plus
    anything {!register}ed, in registration order. *)

val names : unit -> string list

val register : (module ENGINE) -> unit
(** Append an engine to the registry.  A later registration shadows an
    earlier engine of the same name in {!find}. *)

val find : string -> ((module ENGINE), Dq_error.t) result
(** Resolve a registry name (or the alias [v-inc] for [inc]);
    [Error (Unknown_engine _)] otherwise. *)

val check_fragment :
  (module ENGINE) -> Schema.t -> Cfd.t array -> (unit, Dq_error.t) result
(** [fragment] with the failure wrapped as
    [Dq_error.Engine_unsupported]. *)
