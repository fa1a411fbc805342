let enabled_flag = Atomic.make false

let set_enabled b = Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

(* Counters are monotonic; [add] documents non-negativity and [strict]
   decides what a violation does: raise (debug builds, the test suite)
   or clamp to a no-op (release daemons must not die on a bad delta). *)
let strict_flag = Atomic.make false

let set_strict b = Atomic.set strict_flag b

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

type counter = {
  c_name : string;
  c_labels : (string * string) list;
  value : int Atomic.t;
}

type timer = {
  t_name : string;
  t_labels : (string * string) list;
  lock : Mutex.t;
  mutable count : int;
  mutable total : float;
  mutable min : float;
  mutable max : float;
}

type gauge = {
  g_name : string;
  g_labels : (string * string) list;
  g_lock : Mutex.t;
  mutable g_value : float;
}

type histogram = {
  h_name : string;
  h_labels : (string * string) list;
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

(* Handles are typically created at module-initialisation time
   (single-domain), but labeled instruments are registered on demand
   from request threads, so registration takes the registry lock. *)
let registry_lock = Mutex.create ()

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32

let timers : (string, timer) Hashtbl.t = Hashtbl.create 32

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 32

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32

let key name labels = name ^ render_labels labels

let register tbl name labels create =
  let labels = canonical_labels labels in
  let k = key name labels in
  Mutex.lock registry_lock;
  let v =
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None ->
      let v = create labels in
      Hashtbl.add tbl k v;
      v
  in
  Mutex.unlock registry_lock;
  v

let counter ?(labels = []) name =
  register counters name labels (fun c_labels ->
      { c_name = name; c_labels; value = Atomic.make 0 })

let add c n =
  if n < 0 then begin
    if Atomic.get strict_flag then
      invalid_arg
        (Printf.sprintf "Metrics.add: negative increment %d on counter %s" n
           c.c_name)
    (* clamp: a monotonic counter never goes down *)
  end
  else if enabled () then ignore (Atomic.fetch_and_add c.value n)

let incr c = add c 1

let counter_value c = Atomic.get c.value

let timer ?(labels = []) name =
  register timers name labels (fun t_labels ->
      {
        t_name = name;
        t_labels;
        lock = Mutex.create ();
        count = 0;
        total = 0.;
        min = infinity;
        max = neg_infinity;
      })

let record t dt =
  if enabled () then begin
    Mutex.lock t.lock;
    t.count <- t.count + 1;
    t.total <- t.total +. dt;
    if dt < t.min then t.min <- dt;
    if dt > t.max then t.max <- dt;
    Mutex.unlock t.lock
  end

let time t f =
  if not (enabled ()) then f ()
  else begin
    let started = Dq_fault.Clock.now () in
    Fun.protect
      ~finally:(fun () -> record t (Dq_fault.Clock.now () -. started))
      f
  end

let gauge ?(labels = []) name =
  register gauges name labels (fun g_labels ->
      { g_name = name; g_labels; g_lock = Mutex.create (); g_value = 0. })

let set_gauge g v =
  if enabled () then begin
    Mutex.lock g.g_lock;
    g.g_value <- v;
    Mutex.unlock g.g_lock
  end

let add_gauge g d =
  if enabled () then begin
    Mutex.lock g.g_lock;
    g.g_value <- g.g_value +. d;
    Mutex.unlock g.g_lock
  end

let gauge_value g =
  Mutex.lock g.g_lock;
  let v = g.g_value in
  Mutex.unlock g.g_lock;
  v

let histogram ?(labels = []) ?(buckets = latency_buckets) name =
  register histograms name labels (fun h_labels ->
      {
        h_name = name;
        h_labels;
        h_lock = Mutex.create ();
        buckets;
        counts = Array.make (Array.length buckets + 1) 0;
        h_sum = 0.;
        h_count = 0;
      })

let observe h v =
  if enabled () then begin
    let n = Array.length h.buckets in
    let rec slot i = if i >= n || v <= h.buckets.(i) then i else slot (i + 1) in
    let i = slot 0 in
    Mutex.lock h.h_lock;
    h.counts.(i) <- h.counts.(i) + 1;
    h.h_sum <- h.h_sum +. v;
    h.h_count <- h.h_count + 1;
    Mutex.unlock h.h_lock
  end

let histogram_count h =
  Mutex.lock h.h_lock;
  let c = h.h_count in
  Mutex.unlock h.h_lock;
  c

let reset () =
  Mutex.lock registry_lock;
  Hashtbl.iter (fun _ c -> Atomic.set c.value 0) counters;
  Hashtbl.iter
    (fun _ t ->
      Mutex.lock t.lock;
      t.count <- 0;
      t.total <- 0.;
      t.min <- infinity;
      t.max <- neg_infinity;
      Mutex.unlock t.lock)
    timers;
  Hashtbl.iter
    (fun _ g ->
      Mutex.lock g.g_lock;
      g.g_value <- 0.;
      Mutex.unlock g.g_lock)
    gauges;
  Hashtbl.iter
    (fun _ h ->
      Mutex.lock h.h_lock;
      Array.fill h.counts 0 (Array.length h.counts) 0;
      h.h_sum <- 0.;
      h.h_count <- 0;
      Mutex.unlock h.h_lock)
    histograms;
  Mutex.unlock registry_lock

(* ---- JSON snapshot ------------------------------------------------------ *)

let sorted_values tbl name_of =
  Mutex.lock registry_lock;
  let vs = Hashtbl.fold (fun _ v acc -> v :: acc) tbl [] in
  Mutex.unlock registry_lock;
  List.sort (fun a b -> String.compare (name_of a) (name_of b)) vs

let instrument_name name labels = name ^ render_labels labels

let snapshot () =
  let cs = sorted_values counters (fun c -> key c.c_name c.c_labels) in
  let ts = sorted_values timers (fun t -> key t.t_name t.t_labels) in
  let gs = sorted_values gauges (fun g -> key g.g_name g.g_labels) in
  let hs = sorted_values histograms (fun h -> key h.h_name h.h_labels) in
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (List.map
             (fun c ->
               ( instrument_name c.c_name c.c_labels,
                 Json.Int (Atomic.get c.value) ))
             cs) );
      ( "timers",
        Json.Obj
          (List.map
             (fun t ->
               Mutex.lock t.lock;
               let count = t.count
               and total = t.total
               and mn = t.min
               and mx = t.max in
               Mutex.unlock t.lock;
               ( instrument_name t.t_name t.t_labels,
                 Json.Obj
                   [
                     ("count", Json.Int count);
                     ("total_s", Json.Float total);
                     ("min_s", Json.Float (if count = 0 then 0. else mn));
                     ("max_s", Json.Float (if count = 0 then 0. else mx));
                   ] ))
             ts) );
      ( "gauges",
        Json.Obj
          (List.map
             (fun g ->
               (instrument_name g.g_name g.g_labels, Json.Float (gauge_value g)))
             gs) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun h ->
               Mutex.lock h.h_lock;
               let count = h.h_count and sum = h.h_sum in
               Mutex.unlock h.h_lock;
               ( instrument_name h.h_name h.h_labels,
                 Json.Obj
                   [ ("count", Json.Int count); ("sum", Json.Float sum) ] ))
             hs) );
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

(* One family: its TYPE line followed by its samples, already sorted. *)
let family buf ~typ fam samples =
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" fam typ);
  List.iter (fun line -> Buffer.add_string buf line) samples

let to_prometheus ?prefix () =
  let buf = Buffer.create 4096 in
  let collect tbl name_of =
    sorted_values tbl name_of
  in
  (* Group instruments of one kind by family name; instruments are
     already sorted by (name, labels), so groups come out ordered. *)
  let grouped instruments name_of =
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun i ->
        let fam = name_of i in
        match Hashtbl.find_opt tbl fam with
        | Some l -> l := i :: !l
        | None ->
          Hashtbl.add tbl fam (ref [ i ]);
          order := fam :: !order)
      instruments;
    List.rev_map (fun fam -> (fam, List.rev !(Hashtbl.find tbl fam))) !order
    |> List.rev
  in
  let emit ~typ fam members sample_lines =
    family buf ~typ fam (List.concat_map sample_lines members)
  in
  (* Families of all kinds interleave in one sorted stream. *)
  let entries = ref [] in
  let push fam thunk = entries := (fam, thunk) :: !entries in
  List.iter
    (fun (fam, cs) ->
      push fam (fun () ->
          emit ~typ:"counter" fam cs (fun c ->
              [
                Printf.sprintf "%s%s %d\n" fam
                  (render_labels c.c_labels)
                  (Atomic.get c.value);
              ])))
    (grouped
       (List.filter
          (fun c -> matches_prefix prefix c.c_name)
          (collect counters (fun c -> key c.c_name c.c_labels)))
       (fun c -> mangle c.c_name ^ "_total"));
  List.iter
    (fun (fam, gs) ->
      push fam (fun () ->
          emit ~typ:"gauge" fam gs (fun g ->
              [
                Printf.sprintf "%s%s %s\n" fam
                  (render_labels g.g_labels)
                  (float_repr (gauge_value g));
              ])))
    (grouped
       (List.filter
          (fun g -> matches_prefix prefix g.g_name)
          (collect gauges (fun g -> key g.g_name g.g_labels)))
       (fun g -> mangle g.g_name));
  List.iter
    (fun (fam, ts) ->
      push fam (fun () ->
          emit ~typ:"summary" fam ts (fun t ->
              Mutex.lock t.lock;
              let count = t.count and total = t.total in
              Mutex.unlock t.lock;
              let labels = render_labels t.t_labels in
              [
                Printf.sprintf "%s_sum%s %s\n" fam labels (float_repr total);
                Printf.sprintf "%s_count%s %d\n" fam labels count;
              ])))
    (grouped
       (List.filter
          (fun t -> matches_prefix prefix t.t_name)
          (collect timers (fun t -> key t.t_name t.t_labels)))
       (fun t -> mangle t.t_name ^ "_seconds"));
  List.iter
    (fun (fam, hs) ->
      push fam (fun () ->
          emit ~typ:"histogram" fam hs (fun h ->
              Mutex.lock h.h_lock;
              let counts = Array.copy h.counts
              and sum = h.h_sum
              and count = h.h_count in
              Mutex.unlock h.h_lock;
              let cumulative = ref 0 in
              let bucket_lines =
                List.concat
                  [
                    List.init (Array.length h.buckets) (fun i ->
                        cumulative := !cumulative + counts.(i);
                        Printf.sprintf "%s_bucket%s %d\n" fam
                          (render_labels
                             (canonical_labels
                                (("le", float_repr h.buckets.(i))
                                :: h.h_labels)))
                          !cumulative);
                    [
                      Printf.sprintf "%s_bucket%s %d\n" fam
                        (render_labels
                           (canonical_labels (("le", "+Inf") :: h.h_labels)))
                        count;
                    ];
                  ]
              in
              bucket_lines
              @ [
                  Printf.sprintf "%s_sum%s %s\n" fam
                    (render_labels h.h_labels)
                    (float_repr sum);
                  Printf.sprintf "%s_count%s %d\n" fam
                    (render_labels h.h_labels)
                    count;
                ])))
    (grouped
       (List.filter
          (fun h -> matches_prefix prefix h.h_name)
          (collect histograms (fun h -> key h.h_name h.h_labels)))
       (fun h -> mangle h.h_name));
  List.iter
    (fun (_, thunk) -> thunk ())
    (List.sort
       (fun (a, _) (b, _) -> String.compare a b)
       (List.rev !entries));
  Buffer.contents buf
