(* ---- label rendering ---------------------------------------------------- *)

(* Labels are part of an instrument's identity.  They are stored sorted
   by key, so the same label set in any order names the same instrument,
   and rendered once at registration: the hot recording path never
   touches them. *)
let canonical_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

let escape_label_value v =
  let b = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
           labels)
    ^ "}"

(* ---- instruments -------------------------------------------------------- *)

type counter = int Atomic.t

type timer = {
  lock : Mutex.t;
  mutable count : int;
  mutable total : float;
  mutable min : float;
  mutable max : float;
}

type gauge = { g_lock : Mutex.t; mutable g_value : float }

type histogram = {
  h_lock : Mutex.t;
  buckets : float array;  (** upper bounds, increasing; +Inf is implicit *)
  counts : int array;  (** length = Array.length buckets + 1 *)
  mutable h_sum : float;
  mutable h_count : int;
}

(* Log-spaced 1-2.5-5 ladders.  Latency buckets span 100µs to 10s;
   size buckets 1 to 1M (batch sizes, checkpoint bytes). *)
let latency_buckets =
  [|
    0.0001; 0.00025; 0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1;
    0.25; 0.5; 1.; 2.5; 5.; 10.;
  |]

let size_buckets =
  [|
    1.; 2.; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1_000.; 2_500.; 5_000.;
    10_000.; 25_000.; 50_000.; 100_000.; 250_000.; 500_000.; 1_000_000.;
  |]

(* ---- the registry ------------------------------------------------------- *)

type kind =
  | Counter of counter
  | Timer of timer
  | Gauge of gauge
  | Histogram of histogram

type entry = { name : string; labels : (string * string) list; kind : kind }

(* One table, keyed by the instrument's name with its labels rendered,
   which is also how the snapshot names it.  Handles are typically
   created at module-initialisation time (single-domain), but labeled
   instruments are registered on demand from request threads, so
   registration takes the registry lock. *)
let registry_lock = Mutex.create ()

let registry : (string, entry) Hashtbl.t = Hashtbl.create 64

let kind_name = function
  | Counter _ -> "counter"
  | Timer _ -> "timer"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

(* Register [name] with [fresh ()] unless it exists; [pick] hands back
   the handle of the expected kind.  A name already held by another kind
   is a caller bug, refused rather than answered with the wrong handle. *)
let register name labels fresh pick =
  let labels = canonical_labels labels in
  let key = name ^ render_labels labels in
  Mutex.protect registry_lock @@ fun () ->
  let e =
    match Hashtbl.find_opt registry key with
    | Some e -> e
    | None ->
      let e = { name; labels; kind = fresh () } in
      Hashtbl.add registry key e;
      e
  in
  match pick e.kind with
  | Some h -> h
  | None ->
    invalid_arg
      (Printf.sprintf "Metrics: %s is already registered as a %s" key
         (kind_name e.kind))

(* Every entry with its key, sorted by key. *)
let entries () =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.fold (fun key e acc -> (key, e) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counter ?(labels = []) name =
  register name labels
    (fun () -> Counter (Atomic.make 0))
    (function Counter c -> Some c | _ -> None)

(* Counters are monotonic: a negative delta is clamped to a no-op, so a
   daemon never dies on a bad one. *)
let add c n = if n > 0 then ignore (Atomic.fetch_and_add c n)

let incr c = add c 1

let counter_value c = Atomic.get c

let timer ?(labels = []) name =
  register name labels
    (fun () ->
      Timer
        {
          lock = Mutex.create ();
          count = 0;
          total = 0.;
          min = infinity;
          max = neg_infinity;
        })
    (function Timer t -> Some t | _ -> None)

let record t dt =
  Mutex.protect t.lock @@ fun () ->
  t.count <- t.count + 1;
  t.total <- t.total +. dt;
  if dt < t.min then t.min <- dt;
  if dt > t.max then t.max <- dt

let time t f =
  let started = Dq_fault.Clock.now () in
  Fun.protect
    ~finally:(fun () -> record t (Dq_fault.Clock.now () -. started))
    f

let gauge ?(labels = []) name =
  register name labels
    (fun () -> Gauge { g_lock = Mutex.create (); g_value = 0. })
    (function Gauge g -> Some g | _ -> None)

let set_gauge g v = Mutex.protect g.g_lock (fun () -> g.g_value <- v)

let add_gauge g d = Mutex.protect g.g_lock (fun () -> g.g_value <- g.g_value +. d)

let gauge_value g = Mutex.protect g.g_lock (fun () -> g.g_value)

let histogram ?(labels = []) ?(buckets = latency_buckets) name =
  register name labels
    (fun () ->
      Histogram
        {
          h_lock = Mutex.create ();
          buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          h_sum = 0.;
          h_count = 0;
        })
    (function Histogram h -> Some h | _ -> None)

let observe h v =
  let n = Array.length h.buckets in
  let rec slot i = if i >= n || v <= h.buckets.(i) then i else slot (i + 1) in
  let i = slot 0 in
  Mutex.protect h.h_lock @@ fun () ->
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1

let histogram_count h = Mutex.protect h.h_lock (fun () -> h.h_count)

let reset () =
  Mutex.protect registry_lock @@ fun () ->
  Hashtbl.iter
    (fun _ e ->
      match e.kind with
      | Counter c -> Atomic.set c 0
      | Timer t ->
        Mutex.protect t.lock (fun () ->
            t.count <- 0;
            t.total <- 0.;
            t.min <- infinity;
            t.max <- neg_infinity)
      | Gauge g -> set_gauge g 0.
      | Histogram h ->
        Mutex.protect h.h_lock (fun () ->
            Array.fill h.counts 0 (Array.length h.counts) 0;
            h.h_sum <- 0.;
            h.h_count <- 0))
    registry

(* ---- JSON snapshot ------------------------------------------------------ *)

(* One walk over the sorted entries, each landing in its kind's section,
   so every section comes out sorted by instrument name. *)
let snapshot () =
  let cs, ts, gs, hs =
    List.fold_right
      (fun (key, e) (cs, ts, gs, hs) ->
        match e.kind with
        | Counter c -> ((key, Json.Int (Atomic.get c)) :: cs, ts, gs, hs)
        | Timer t ->
          let count, total, mn, mx =
            Mutex.protect t.lock (fun () -> (t.count, t.total, t.min, t.max))
          in
          let timer =
            Json.Obj
              [
                ("count", Json.Int count);
                ("total_s", Json.Float total);
                ("min_s", Json.Float (if count = 0 then 0. else mn));
                ("max_s", Json.Float (if count = 0 then 0. else mx));
              ]
          in
          (cs, (key, timer) :: ts, gs, hs)
        | Gauge g -> (cs, ts, (key, Json.Float (gauge_value g)) :: gs, hs)
        | Histogram h ->
          let count, sum =
            Mutex.protect h.h_lock (fun () -> (h.h_count, h.h_sum))
          in
          let hist =
            Json.Obj [ ("count", Json.Int count); ("sum", Json.Float sum) ]
          in
          (cs, ts, gs, (key, hist) :: hs))
      (entries ()) ([], [], [], [])
  in
  Json.Obj
    [
      ("counters", Json.Obj cs);
      ("timers", Json.Obj ts);
      ("gauges", Json.Obj gs);
      ("histograms", Json.Obj hs);
    ]

(* ---- Prometheus text exposition ----------------------------------------- *)

(* Stable metric naming: every family is cfdclean_<mangled instrument
   name> — dots and any other non-[a-zA-Z0-9_] byte become '_'.  Output
   is sorted by family name, then by rendered label set, so two scrapes
   of the same registry state are byte-identical. *)
let mangle name =
  let b = Buffer.create (String.length name + 9) in
  Buffer.add_string b "cfdclean_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let matches_prefix prefix name =
  match prefix with
  | None -> true
  | Some p ->
    String.length name >= String.length p
    && String.equal (String.sub name 0 (String.length p)) p

(* An entry's family name and its TYPE. *)
let family e =
  match e.kind with
  | Counter _ -> (mangle e.name ^ "_total", "counter")
  | Gauge _ -> (mangle e.name, "gauge")
  | Timer _ -> (mangle e.name ^ "_seconds", "summary")
  | Histogram _ -> (mangle e.name, "histogram")

let samples buf fam e =
  let line fmt = Printf.bprintf buf fmt in
  let labels = render_labels e.labels in
  match e.kind with
  | Counter c -> line "%s%s %d\n" fam labels (Atomic.get c)
  | Gauge g -> line "%s%s %s\n" fam labels (float_repr (gauge_value g))
  | Timer t ->
    let count, total = Mutex.protect t.lock (fun () -> (t.count, t.total)) in
    line "%s_sum%s %s\n" fam labels (float_repr total);
    line "%s_count%s %d\n" fam labels count
  | Histogram h ->
    let counts, sum, count =
      Mutex.protect h.h_lock (fun () -> (Array.copy h.counts, h.h_sum, h.h_count))
    in
    let bucket le n =
      line "%s_bucket%s %d\n" fam
        (render_labels (canonical_labels (("le", le) :: e.labels)))
        n
    in
    let cumulative = ref 0 in
    Array.iteri
      (fun i bound ->
        cumulative := !cumulative + counts.(i);
        bucket (float_repr bound) !cumulative)
      h.buckets;
    bucket "+Inf" count;
    line "%s_sum%s %s\n" fam labels (float_repr sum);
    line "%s_count%s %d\n" fam labels count

(* One walk over the entries, stably sorted by family: a family's
   members keep the entries' name-and-label order, and each family gets
   one TYPE line before its first member. *)
let to_prometheus ?prefix () =
  let buf = Buffer.create 4096 in
  entries ()
  |> List.filter_map (fun (_, e) ->
         if matches_prefix prefix e.name then Some (family e, e) else None)
  |> List.stable_sort (fun ((f1, t1), _) ((f2, t2), _) ->
         match String.compare f1 f2 with 0 -> String.compare t1 t2 | c -> c)
  |> List.fold_left
       (fun last (((fam, typ) as f), e) ->
         if last <> Some f then Printf.bprintf buf "# TYPE %s %s\n" fam typ;
         samples buf fam e;
         Some f)
       None
  |> ignore;
  Buffer.contents buf
