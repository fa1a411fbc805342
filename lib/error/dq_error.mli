(** The one error type the public engine APIs and the CLI agree on.

    Engine entry points return [('a * Dq_obs.Report.t, Dq_error.t) result]
    instead of raising; the CLI maps each constructor to a stable message
    ({!to_string}), a machine-readable object ({!to_json}, used in the
    [diagnostics] field of the JSON envelope), and a process exit code
    ({!exit_code}) — so every subcommand fails the same way.

    Exit codes are standardised in {!Exit}:
    - [0] — success;
    - [1] — the command ran and found problems (violations detected, a
      rejected sample, an unsatisfiable ruleset);
    - [2] — usage or input error (bad flags, unreadable files, schema
      mismatches, invalid configuration, refusal to overwrite);
    - [3] — a gated refusal: the ruleset has lint errors and [--force]
      was not given, or [--analyze-gate] found dependency cycles;
    - [4] — a deadline expired before anything usable was produced
      (when a partial result exists the command instead succeeds with
      [degraded] set in the report). *)

type t =
  | Io of string  (** file system or CSV framing problems *)
  | Parse of { path : string; line : int; col : int; message : string }
      (** CFD ruleset syntax errors, with source position *)
  | Invalid_input of string
      (** schema resolution failures, malformed deltas, bad argument
          combinations *)
  | Invalid_config of string  (** rejected engine configuration *)
  | Lint_gated of { path : string; errors : int; hint : string }
      (** refused because the ruleset has lint errors and no [--force] *)
  | Analyze_gated of { path : string; cycles : int; hint : string }
      (** refused by [--analyze-gate]: the ruleset's attribute dependency
          graph has cycles, so the naive repair fixpoint may oscillate *)
  | Unsatisfiable  (** no repair exists for the constraint set *)
  | Would_overwrite of string
      (** the output path resolves to the input and [--in-place] was not
          given *)
  | Deadline_exceeded
      (** a [--deadline] expired before any usable (even partial) result
          existed *)
  | Fault_injected of string
      (** an armed fault plan fired at this site — only reachable when
          [--fault-plan]/[DQ_FAULT] is set *)
  | Unknown_engine of { name : string; known : string list }
      (** [--engine] named no registered repair engine *)
  | Engine_unsupported of { engine : string; reason : string }
      (** the selected engine refuses this Σ fragment (e.g. [opt-fd] on a
          ruleset with constant patterns or dependency cycles) *)
  | No_such_session of string
      (** a serve endpoint named a session id the daemon does not hold
          (mapped to HTTP 404 by [cfdclean serve]) *)
  | Queue_full of { session : string; depth : int }
      (** a session's bounded ingest lane was already holding [depth]
          batches — the daemon shed the request (HTTP 429); nothing was
          committed and the same batch is safe to retry *)
  | Unavailable of string
      (** the daemon refused admission: draining, or a global in-flight /
          connection ceiling was hit (HTTP 503) *)
  | Breaker_open of { session : string; faults : int }
      (** the session's circuit breaker opened after consecutive engine
          faults; ingest/resolve are refused (HTTP 503) until an operator
          POSTs [/v1/sessions/ID/resume] *)
  | Internal of string  (** an engine invariant broke — a bug *)

val to_string : t -> string
(** Stable, single-line rendering (no trailing newline). *)

val to_json : t -> Dq_obs.Json.t
(** An object with at least ["kind"] and ["message"] fields; [Parse]
    adds ["path"], ["line"], ["col"]. *)

val exit_code : t -> int

module Exit : sig
  val ok : int
  (** [0] *)

  val dirty : int
  (** [1]: violations / problems found *)

  val usage : int
  (** [2]: usage, input or configuration error *)

  val lint_gated : int
  (** [3]: refused because of lint errors (no [--force]) *)

  val deadline : int
  (** [4]: deadline exceeded with nothing usable to return *)
end
