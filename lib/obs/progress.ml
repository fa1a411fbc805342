let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

let interval = 0.25 (* seconds between repaints: ~4 Hz *)

(* Timestamp of the last repaint; [dirty] remembers whether anything was
   drawn so [finish] knows if there is a line to wipe.  Guarded writes keep
   concurrent emitters (pool workers) from interleaving partial lines. *)
let lock = Mutex.create ()
let last = ref neg_infinity
let dirty = ref false

let clear_line () =
  if !dirty then begin
    output_string stderr "\r\027[K";
    flush stderr;
    dirty := false
  end

let set_enabled b =
  if not b then begin
    Mutex.lock lock;
    clear_line ();
    last := neg_infinity;
    Mutex.unlock lock
  end;
  Atomic.set enabled_flag b

let emit render =
  if Atomic.get enabled_flag then begin
    Mutex.lock lock;
    let now = Dq_fault.Clock.now () in
    if now -. !last >= interval then begin
      last := now;
      output_string stderr ("\r\027[K" ^ render ());
      flush stderr;
      dirty := true
    end;
    Mutex.unlock lock
  end

let finish () =
  Mutex.lock lock;
  clear_line ();
  last := neg_infinity;
  Mutex.unlock lock
