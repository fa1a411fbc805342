module Metrics = Dq_obs.Metrics
module Trace = Dq_obs.Trace
module Fault = Dq_fault.Fault
module Deadline = Dq_fault.Deadline

(* Pool utilization instruments: batches and tasks executed, wall time per
   batch, and busy time summed across all domains.  Utilization over a
   window is busy / (wall * jobs). *)
let m_batches = Metrics.counter "pool.batches"

let m_tasks = Metrics.counter "pool.tasks"

let m_batch_wall = Metrics.timer "pool.batch_wall"

let m_task_busy = Metrics.timer "pool.task_busy"

type t = {
  jobs : int;
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  work_available : Condition.t;
  mutable closed : bool;
  mutable spawned : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

(* Workers block on [work_available] until a task arrives or the pool
   closes; tasks run outside the lock. *)
let worker pool () =
  let rec take () =
    match Queue.take_opt pool.queue with
    | Some task ->
      Mutex.unlock pool.lock;
      Some task
    | None ->
      if pool.closed then begin
        Mutex.unlock pool.lock;
        None
      end
      else begin
        Condition.wait pool.work_available pool.lock;
        take ()
      end
  in
  let rec loop () =
    Mutex.lock pool.lock;
    match take () with
    | Some task ->
      task ();
      loop ()
    | None -> ()
  in
  loop ()

let create ~jobs =
  if jobs < 1 then
    invalid_arg (Printf.sprintf "Pool.create: jobs must be >= 1 (got %d)" jobs);
  {
    jobs;
    queue = Queue.create ();
    lock = Mutex.create ();
    work_available = Condition.create ();
    closed = false;
    spawned = false;
    workers = [];
  }

(* Called with [pool.lock] held, at the first batch that can use workers
   or the first {!exec} job, so a pool whose holder submits neither spawns
   none.  Each worker is recorded as soon as it exists: if a spawn fails,
   the ones before it are still joined by [shutdown], and no later batch
   tries again.  A new domain does not record backtraces until told to,
   so each worker takes the spawner's setting: a task's exception then
   reaches the caller with the task's backtrace. *)
let spawn_workers pool =
  if not (pool.spawned || pool.closed) then begin
    pool.spawned <- true;
    let record = Printexc.backtrace_status () in
    for _ = 2 to pool.jobs do
      pool.workers <-
        Domain.spawn (fun () ->
            Printexc.record_backtrace record;
            worker pool ())
        :: pool.workers
    done
  end

let shutdown pool =
  Mutex.lock pool.lock;
  pool.closed <- true;
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.workers;
  pool.workers <- []

let with_pool ?jobs f =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let run ?(deadline = Deadline.never) pool tasks =
  let n = Array.length tasks in
  (* The ["pool.task"] fault site wraps every task when a plan is armed
     (and costs one atomic read otherwise) — how the robustness tests
     inject a raising or stalling task into the middle of a batch. *)
  let tasks =
    if not (Fault.armed ()) then tasks
    else
      Array.map
        (fun f () ->
          Fault.hit "pool.task";
          f ())
        tasks
  in
  let tasks =
    if not (Metrics.enabled ()) then tasks
    else begin
      Metrics.incr m_batches;
      Metrics.add m_tasks n;
      Array.map (fun f -> fun () -> Metrics.time m_task_busy f) tasks
    end
  in
  (* Tasks inherit the submitter's span stack: a chunk span's logical
     parent is the span that submitted the batch, whichever thread (lane)
     ends up executing it. *)
  let tasks =
    if not (Trace.enabled ()) then tasks
    else begin
      let ctx = Trace.current_context () in
      Array.map (fun f -> fun () -> Trace.with_context ctx f) tasks
    end
  in
  Metrics.time m_batch_wall @@ fun () ->
  if n = 0 then ()
  else if pool.jobs = 1 || n = 1 then
    Array.iter
      (fun f ->
        Deadline.check deadline;
        f ())
      tasks
  else begin
    let remaining = Atomic.make n in
    (* First failure wins: the winning task's exception and backtrace,
       re-raised in the caller once the whole batch has drained. *)
    let failed = Atomic.make None in
    let batch_lock = Mutex.create () in
    let batch_done = Condition.create () in
    let record e bt = ignore (Atomic.compare_and_set failed None (Some (e, bt))) in
    let wrap f () =
      (* Cooperative cancellation: once the deadline expires, tasks not
         yet started are skipped (they still count down [remaining], so
         the batch drains normally) and the caller sees
         [Deadline.Expired].  A task already running is never
         interrupted. *)
      (if Deadline.expired deadline then
         record Deadline.Expired (Printexc.get_callstack 0)
       else
         try f ()
         with e -> record e (Printexc.get_raw_backtrace ()));
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        (* Last task out signals under the batch lock so the waiter can't
           miss the wake-up between its counter check and its wait. *)
        Mutex.lock batch_lock;
        Condition.broadcast batch_done;
        Mutex.unlock batch_lock
      end
    in
    Mutex.lock pool.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock pool.lock)
      (fun () ->
        spawn_workers pool;
        Array.iter (fun f -> Queue.add (wrap f) pool.queue) tasks;
        Condition.broadcast pool.work_available);
    (* The caller helps drain the queue instead of idling: with j jobs the
       batch runs on j domains, and a busy pool can never deadlock its
       submitter. *)
    let rec help () =
      if Atomic.get remaining > 0 then begin
        Mutex.lock pool.lock;
        let task = Queue.take_opt pool.queue in
        Mutex.unlock pool.lock;
        match task with
        | Some task ->
          task ();
          help ()
        | None ->
          Mutex.lock batch_lock;
          while Atomic.get remaining > 0 do
            Condition.wait batch_done batch_lock
          done;
          Mutex.unlock batch_lock
      end
    in
    help ();
    match Atomic.get failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let ranges ~chunks n =
  if n <= 0 then []
  else begin
    let chunks = max 1 (min chunks n) in
    List.init chunks (fun c -> (c * n / chunks, (c + 1) * n / chunks))
  end

let map_reduce ?deadline pool ?chunks ~n ~map ~fold ~init =
  let chunks = match chunks with Some c -> c | None -> pool.jobs in
  let ranges = Array.of_list (ranges ~chunks n) in
  let results = Array.make (Array.length ranges) None in
  run ?deadline pool
    (Array.mapi
       (fun c (lo, hi) -> fun () -> results.(c) <- Some (map lo hi))
       ranges);
  Array.fold_left
    (fun acc r -> match r with Some x -> fold acc x | None -> acc)
    init results

(* One whole job on a worker domain; the calling thread blocks on the
   job's own condition rather than helping drain the queue, so the job
   never runs on the caller's domain while workers exist.  No fault site,
   metrics or deadline: those belong to batches. *)
let exec pool f =
  let ctx = Trace.current_context () in
  let result = ref None in
  let lock = Mutex.create () in
  let finished = Condition.create () in
  let job () =
    let r =
      Trace.with_context ctx (fun () ->
          try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    Mutex.protect lock (fun () ->
        result := Some r;
        Condition.signal finished)
  in
  (* Inline when there is no worker to wait for: a 1-job pool, a pool
     shut down (or shutting down), or one whose first spawn failed. *)
  let queued =
    pool.jobs > 1
    && Mutex.protect pool.lock (fun () ->
           spawn_workers pool;
           if pool.closed || pool.workers = [] then false
           else begin
             Queue.add job pool.queue;
             Condition.signal pool.work_available;
             true
           end)
  in
  if not queued then f ()
  else begin
    Mutex.lock lock;
    while Option.is_none !result do
      Condition.wait finished lock
    done;
    Mutex.unlock lock;
    match Option.get !result with
    | Ok v -> v
    | Error (e, bt) -> Printexc.raise_with_backtrace e bt
  end

(* ---- ?pool-threading conveniences ------------------------------------ *)

let sequential = function
  | None -> true
  | Some pool -> pool.jobs = 1

(* With a [?label], each chunk runs under a traced span — sequential and
   parallel paths alike, so the set of span paths is jobs-independent. *)
let chunk_span label f =
  match label with
  | None -> f
  | Some name ->
    fun lo hi ->
      Trace.span ~cat:"pool"
        ~args:(fun () -> [ ("lo", Dq_obs.Json.Int lo); ("hi", Dq_obs.Json.Int hi) ])
        name
        (fun () -> f lo hi)

let for_chunks ?deadline ?chunks ?label pool ~n f =
  if n <= 0 then ()
  else
    let f = chunk_span label f in
    match pool with
    | Some pool when not (sequential (Some pool)) ->
      map_reduce ?deadline pool ?chunks ~n ~map:f
        ~fold:(fun () () -> ())
        ~init:()
    | _ ->
      Option.iter Deadline.check deadline;
      f 0 n

let map_chunks ?deadline ?chunks ?label pool ~n map =
  if n <= 0 then []
  else
    let map = chunk_span label map in
    match pool with
    | Some pool when not (sequential (Some pool)) ->
      map_reduce ?deadline pool ?chunks ~n ~map
        ~fold:(fun acc x -> x :: acc)
        ~init:[]
      |> List.rev
    | _ ->
      Option.iter Deadline.check deadline;
      [ map 0 n ]

let map_array ?deadline ?chunks ?label pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    for_chunks ?deadline ?chunks ?label pool ~n (fun lo hi ->
        for i = lo to hi - 1 do
          out.(i) <- Some (f arr.(i))
        done);
    Array.map (function Some x -> x | None -> assert false) out
  end
