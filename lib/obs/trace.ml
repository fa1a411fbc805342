module Clock = Dq_fault.Clock

type context = string list
(* Innermost-first stack of enclosing span names for one thread. *)

type event = {
  ph : [ `B | `E ];
  name : string;
  cat : string;
  ts : float;
  tid : int;
  path : string list;
  args : (string * Json.t) list;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* Timestamp origin, set when collection starts so traces begin near 0. *)
let epoch = Atomic.make 0.0
let us t = (t -. Atomic.get epoch) *. 1e6

(* One lock guards the event buffer and the span stacks.  Events are
   appended in real chronological order, so each thread's subsequence is
   well-nested by construction — no timestamp sorting (and its
   zero-duration tie-break hazards) needed on output. *)
let lock = Mutex.create ()
let buf : event list ref = ref []

(* Span stacks by [Thread.id], which is unique across domains: the
   daemon's connection handlers are systhreads sharing one domain, and
   each must nest only its own spans.  A thread with no open span has no
   entry. *)
let stacks : (int, context) Hashtbl.t = Hashtbl.create 8

(* Both called with [lock] held. *)
let stack_of tid = Option.value ~default:[] (Hashtbl.find_opt stacks tid)

let set_stack tid = function
  | [] -> Hashtbl.remove stacks tid
  | s -> Hashtbl.replace stacks tid s

let clear () =
  Mutex.lock lock;
  buf := [];
  Mutex.unlock lock;
  Atomic.set epoch (Clock.now ())

let set_enabled b =
  if b && not (Atomic.get enabled_flag) then
    Atomic.set epoch (Clock.now ());
  Atomic.set enabled_flag b

let current_context () =
  if not (enabled ()) then []
  else Mutex.protect lock (fun () -> stack_of (Thread.id (Thread.self ())))

let with_context ctx f =
  if not (enabled ()) then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let install s =
      Mutex.protect lock (fun () ->
          let old = stack_of tid in
          set_stack tid s;
          old)
    in
    let saved = install ctx in
    Fun.protect ~finally:(fun () -> ignore (install saved)) f
  end

(* Record [name]'s B event on the calling thread's lane and push it on
   the thread's stack; the result records the E event and pops it. *)
let open_span ~cat ~args name t0 =
  let tid = Thread.id (Thread.self ()) in
  Mutex.protect lock (fun () ->
      let stack = stack_of tid in
      let path = List.rev (name :: stack) in
      set_stack tid (name :: stack);
      buf := { ph = `B; name; cat; ts = us t0; tid; path; args } :: !buf;
      fun t1 ->
        Mutex.protect lock (fun () ->
            let e = { ph = `E; name; cat; ts = us t1; tid; path; args = [] } in
            buf := e :: !buf;
            set_stack tid stack))

let span ?(cat = "span") ?args ?timer ?phases name f =
  let tracing = enabled () in
  if not (tracing || Option.is_some timer || Option.is_some phases) then f ()
  else begin
    let args = match args with Some thunk when tracing -> thunk () | _ -> [] in
    let t0 = Clock.now () in
    let close = if tracing then open_span ~cat ~args name t0 else ignore in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now () in
        let dt = t1 -. t0 in
        Option.iter (fun acc -> acc := !acc @ [ (name, dt) ]) phases;
        Option.iter (fun t -> Metrics.record t dt) timer;
        close t1)
      f
  end

let events () =
  Mutex.lock lock;
  let evs = List.rev !buf in
  Mutex.unlock lock;
  evs

let pid = lazy (Unix.getpid ())

let event_json ev =
  let base =
    [
      ("cat", Json.String ev.cat);
      ("name", Json.String ev.name);
      ("ph", Json.String (match ev.ph with `B -> "B" | `E -> "E"));
      ("ts", Json.Float ev.ts);
      ("pid", Json.Int (Lazy.force pid));
      ("tid", Json.Int ev.tid);
    ]
  in
  Json.Obj (match ev.args with [] -> base | args -> base @ [ ("args", Json.Obj args) ])

let to_json () =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event_json (events ())));
      ("displayTimeUnit", Json.String "ms");
    ]

let write path =
  Dq_fault.Atomic_io.write_file path
    (Json.to_string ~minify:true (to_json ()))
