(** Versioned on-disk snapshots of a batch repair in flight.

    A checkpoint captures everything [Batch_repair] needs to continue
    from a pass boundary: the equivalence-class partition (targets,
    representatives, ranks, member order), the provenance trail so far,
    the progress counters, and a fingerprint of the inputs so a stale
    file cannot be resumed against different data.

    Values — including floats — round-trip {e exactly}: floats are
    serialised as C99 hex literals ([%h]), not decimal, so a resumed
    run's cost arithmetic and trail are bit-identical to the run that
    wrote the checkpoint.

    Files are written atomically ({!Dq_fault.Atomic_io}), so a crash
    during checkpointing leaves the previous checkpoint intact — the
    invariant behind the kill-and-resume tests. *)

type counters = {
  pass : int;  (** pass boundaries completed *)
  steps : int;
  rescans : int;
  merges : int;
  rhs_fixes : int;
  lhs_fixes : int;
  nulls_introduced : int;
}

type t = {
  kind : string;  (** which engine wrote it — {!batch_kind} or {!opt_fd_kind} *)
  fingerprint : int;  (** {!fingerprint} of the inputs *)
  use_dependency_graph : bool;
  counters : counters;
  eq : Eqclass.snapshot;
  trail : Dq_obs.Provenance.entry list;
}

val version : int
(** Schema version written to and required from files (currently 1). *)

val batch_kind : string
(** ["batch-repair"] — written by [Batch_repair]. *)

val opt_fd_kind : string
(** ["opt-fd-repair"] — written by [Opt_fd_repair].  Its counters reuse
    this record: [pass] counts completed attribute strata, [steps] counts
    LHS-key groups examined; the remaining batch-specific counters stay
    zero. *)

val known_kinds : string list
(** Kinds {!of_json} accepts.  An engine must additionally check that a
    resumed checkpoint's [kind] is its own ({!check_resume}). *)

val fingerprint :
  Dq_relation.Relation.t ->
  Dq_cfd.Cfd.t array ->
  use_dependency_graph:bool ->
  int
(** A structural hash of the dirty relation, the ruleset and the
    configuration.  Resume refuses a checkpoint whose fingerprint does
    not match the current invocation. *)

val check_resume :
  kind:string -> fingerprint:int -> t option -> (unit, Dq_error.t) result
(** The check every engine makes before it resumes: [Ok ()] without a
    checkpoint, and [Invalid_input] for one another engine wrote (its
    [kind] is not [kind]) or one whose fingerprint is not [fingerprint],
    the current invocation's. *)

val to_json : t -> Dq_obs.Json.t

val of_json : Dq_obs.Json.t -> (t, string) result

val save : string -> t -> unit
(** Atomic write ({!Dq_fault.Atomic_io.write_file}).
    @raise Sys_error on I/O failure. *)

val load : string -> (t, string) result
(** Read, parse and validate (including the schema version).  I/O
    failures are returned as [Error], not raised. *)
