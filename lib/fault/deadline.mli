(** Cooperative deadlines.

    A [Deadline.t] is a cancellation token checked by long-running
    engines at natural boundaries (batch passes, resolved tuples,
    pool chunks).  Two flavours:

    - {!after}: a time budget in seconds — what [--deadline] arms.
      [expired] becomes true once {!Clock.now} passes the limit,
      regardless of {!tick}s.  The clock is monotonic, so a wall-clock
      step neither expires nor extends a deadline.
    - {!after_passes}: a logical budget — expired after [n] calls to
      {!tick}.  Because it ignores the clock it cuts at a
      deterministic boundary, which is what the determinism tests
      ("a repair cut at pass k equals the first k passes of an
      uninterrupted run") need.

    Checking is cooperative: nothing is interrupted preemptively, code
    must poll {!expired} (or call {!check}) and wind down with its
    best result so far. *)

type t

exception Expired

(** Never expires.  [expired never] is false and costs one branch, so
    engines can take a [?deadline] without a fast-path penalty. *)
val never : t

(** [after secs] expires [secs] seconds of monotonic time from now.
    [after 0.] is already expired. *)
val after : float -> t

(** [after_passes n] expires once {!tick} has been called [n] times.
    Deterministic: independent of the clock and of the job count. *)
val after_passes : int -> t

(** Count one logical unit of work (a batch pass, a resolved tuple).
    No-op on [never] and timed deadlines. *)
val tick : t -> unit

(** True once the budget — timed or logical — is exhausted. *)
val expired : t -> bool

(** Like {!expired}, but only for timed ({!after}) deadlines: logical
    deadlines report false.  Lets an engine poll mid-pass for
    responsiveness without making [after_passes] cuts depend on where
    the clock happened to land. *)
val wall_expired : t -> bool

(** Raise {!Expired} if {!expired}. *)
val check : t -> unit
