(** Crash-safe session checkpoints: a snapshot plus an append-only
    journal.

    Every committed mutation of a {!Session.t} is made durable {e before}
    the daemon acknowledges the request, so a [kill -9] at any point
    leaves each session at its last acknowledged state on disk and a
    restarted daemon ([--resume]) serves byte-identical relations.  A
    session lives in two files:

    - [DIR/ID.json], a snapshot of the whole session (ruleset text,
      every row, the quarantine, the counters), written atomically via
      {!Dq_fault.Atomic_io.write_file}.  It records [seq], the number of
      mutations it covers.
    - [DIR/ID.journal], one newline-terminated JSON record per
      checkpoint since that snapshot: the rows the mutations appended to
      the relation (in the relation's insertion order), the quarantine
      entries they added and the tids they dropped, the counters after
      them, and the mutations it covers, [from + 1] to [seq] (usually
      one; several when mutations were committed between two saves).
      Each record is fsynced before the response goes out.

    {!save} appends a record, or writes a snapshot instead when the
    session has none on disk yet, when the journal has grown larger than
    the snapshot (compaction), or when the previous append failed.
    Writing a snapshot removes the journal.  Loading skips the records
    whose [seq] the snapshot already covers, so a crash between a
    compaction's rename and the journal's removal replays nothing twice.
    It replays a record only when its [from] is the last mutation
    replayed so far, and fails otherwise.  It reads only
    newline-terminated records: a torn last line comes from an append
    that never completed, so it was never acknowledged.  Because
    an append that fails forces the next checkpoint to be a snapshot, a
    torn record can only ever be the journal's last line.

    Values round-trip exactly: ints and floats use a tagged encoding
    ([{"i": n}] / [{"f": "<%h hex literal>"}]) because the relation's
    CSV rendering — the byte-identity the restart test asserts — is a
    function of the typed value, not of its decimal approximation.
    Weights are stored as [%h] strings for the same reason. *)

val version : int
(** Snapshot format version written.  Version 1 snapshots (no [seq], no
    journal) still load, as [seq = 0]. *)

val save : dir:string -> Session.t -> int
(** Checkpoint the mutations committed since the last call: append one
    journal record, or write a snapshot as described above.  Returns the
    bytes written (what the daemon's checkpoint metrics record), 0 when
    nothing changed.  Creates [dir] if missing.  Caller holds the session
    lock.  @raise Sys_error on I/O failure, after which the next call
    writes a snapshot. *)

val delete : dir:string -> string -> unit
(** Remove a session's snapshot and journal, ignoring missing files. *)

val load : string -> (Session.t, string) result
(** Read one snapshot file and replay the journal next to it. *)

val load_id : dir:string -> string -> (Session.t, string) result
(** Read the session [id] back from [dir] — how the daemon reloads an
    idle-evicted session on its next touch. *)

val load_dir : string -> ((string * Session.t) list, string) result
(** Load every session under a directory (created if missing), one per
    [*.json] snapshot, as [(filename, session)] sorted by filename.  The
    first unreadable snapshot or journal fails the whole load: resuming
    from a corrupt state directory should be loud, not partial. *)
