(** A small domain pool for whole ingest jobs.

    Connection handlers are systhreads sharing one runtime lock, so two
    sessions repairing on handler threads cannot overlap their OCaml
    compute; shipping each lane job to a worker {e domain} gives
    independent sessions real parallelism.  Separate from
    {!Dq_parallel.Pool} on purpose: engines chunk through that pool from
    inside these jobs, and its contract forbids nested submission. *)

type t

val create : workers:int -> t
(** Spawn [workers] (>= 1) worker domains.  Each worker domain counts
    against the runtime's domain budget alongside the repair pool's
    [jobs - 1] domains, which that pool spawns at its first parallel
    batch. *)

val exec : t -> (unit -> 'a) -> 'a
(** Run the job on a worker domain, blocking the calling thread until it
    finishes; exceptions re-raise in the caller.  On a pool already shut
    down the job runs inline in the caller — an admitted request is
    never lost to drain ordering. *)

val shutdown : t -> unit
(** Finish queued jobs, then join the worker domains.  Idempotent. *)
