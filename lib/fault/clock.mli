(** The one clock every duration and deadline in the library reads.

    [now ()] is the monotonic clock ([CLOCK_MONOTONIC], through
    bechamel's stub, the clock perfbench measures with), in seconds from
    an arbitrary origin.  Only differences of two reads mean anything:
    they are elapsed time, and a wall-clock step (NTP, an operator
    setting the date) moves neither a measured duration nor a deadline.
    Log timestamps are the one place the library reads the wall clock
    ([Dq_obs.Log]); [tools/check_determinism.ml] rejects any other. *)

val now : unit -> float
