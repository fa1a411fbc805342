type t =
  | Never
  | Until of float  (** absolute {!Clock.now} limit *)
  | Passes of { budget : int; used : int Atomic.t }

exception Expired

let never = Never

let after secs = Until (Clock.now () +. secs)

let after_passes n = Passes { budget = n; used = Atomic.make 0 }

let tick = function
  | Never | Until _ -> ()
  | Passes { used; _ } -> ignore (Atomic.fetch_and_add used 1)

let expired = function
  | Never -> false
  | Until limit -> Clock.now () >= limit
  | Passes { budget; used } -> Atomic.get used >= budget

let wall_expired = function
  | Until limit -> Clock.now () >= limit
  | Never | Passes _ -> false

let check d = if expired d then raise Expired
