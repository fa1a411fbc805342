(** The versioned JSON envelope every machine-readable response shares.

    One schema wraps every [cfdclean] subcommand's [--format json]
    output, every [cfdclean serve] endpoint's response body, and the
    bench harness's [BENCH_*.json] files:

    {v {"v": 2, "request": ..., "ok": ..., "report": ..., "diagnostics": [...]} v}

    - [v] — the envelope schema version ({!version}).  Consumers must
      check it before reading anything else; additions bump it.
    - [request] — what produced the envelope.  For the CLI this is the
      subcommand name (["repair"]); for the daemon it is the endpoint
      label (["sessions.ingest"]).  Replaces v1's CLI-shaped [command]
      field so the same parser reads both transports.
    - [ok] — whether the request succeeded.
    - [report] — the engine's structured {!Report} as JSON ([null] on
      failure).
    - [diagnostics] — warnings and, on failure, the structured error. *)

val version : int
(** The wire schema version emitted and required: [2]. *)

val make :
  request:string ->
  ?id:string ->
  ok:bool ->
  report:Json.t ->
  diagnostics:Json.t list ->
  unit ->
  Json.t
(** Build an envelope.  Field order is fixed ([v, request, id?, ok,
    report, diagnostics]) so output is byte-comparable.  [id] is the
    serve daemon's per-request correlation id, which every daemon
    response carries.  CLI envelopes answer no request and omit it. *)

val error : request:string -> ?id:string -> Json.t -> Json.t
(** [error ~request err] is the failure envelope: [ok = false], a [null]
    report, and [err] as the one diagnostic. *)
