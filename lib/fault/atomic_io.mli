(** Crash-safe file writes.

    [write_file path contents] writes to a fresh temp file in [path]'s
    directory, fsyncs, then [rename]s over [path] — so readers of
    [path] see either the old bytes or the new bytes, never a
    truncated mix, no matter where the writer dies.  This is the one
    write primitive behind [Csv.save_file], [--in-place], [--metrics],
    [--trace], checkpoints and [generate] outputs.

    The rename is preceded by the ["io.write"] fault site, so an armed
    plan can kill the write after the data is staged but before it is
    published — the canonical crash the tests inject. *)

(** [write_file path contents] atomically replaces [path].  The temp
    file is removed on any failure.  Raises [Sys_error] on I/O errors
    (OS errors are normalised to [Sys_error]) and [Fault.Injected]
    when the ["io.write"] site is armed. *)
val write_file : string -> string -> unit

(** [append_file path contents] appends to [path] (created if missing)
    and fsyncs before returning, so the bytes are durable once it does.
    An append is not atomic: a crash or an I/O error mid-write can leave
    a prefix of [contents] at the end of the file, which readers must
    recognise (the serve journal only counts newline-terminated
    records).  The ["io.write"] fault site fires before the first byte
    is written.  Raises [Sys_error] on I/O errors and [Fault.Injected]
    when the site is armed. *)
val append_file : string -> string -> unit
