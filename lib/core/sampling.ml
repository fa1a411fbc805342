open Dq_relation
open Dq_cfd
module Metrics = Dq_obs.Metrics
module Report = Dq_obs.Report
module Trace = Dq_obs.Trace
module Deadline = Dq_fault.Deadline

type strategy = By_violations of int list | By_cost of float list

let m_inspections = Metrics.counter "sampling.inspections"

let m_drawn = Metrics.counter "sampling.drawn"

let m_t_stratify = Metrics.timer "sampling.phase.stratify"

let m_t_score = Metrics.timer "sampling.phase.score"

type config = {
  epsilon : float;
  confidence : float;
  sample_size : int;
  fractions : float array;
  strategy : strategy;
}

let default_config ?(epsilon = 0.05) ?(confidence = 0.95) ?(sample_size = 200)
    () =
  {
    epsilon;
    confidence;
    sample_size;
    fractions = [| 0.2; 0.3; 0.5 |];
    strategy = By_violations [ 1; 3 ];
  }

let n_strata config =
  match config.strategy with
  | By_violations bs -> List.length bs + 1
  | By_cost bs -> List.length bs + 1

let rec sorted_ascending cmp = function
  | [] | [ _ ] -> true
  | x :: (y :: _ as rest) -> cmp x y <= 0 && sorted_ascending cmp rest

let validate_config config =
  let m = n_strata config in
  if not (config.epsilon > 0. && config.epsilon < 1.) then
    Error "epsilon must be in (0,1)"
  else if not (config.confidence > 0. && config.confidence < 1.) then
    Error "confidence must be in (0,1)"
  else if config.sample_size <= 0 then Error "sample_size must be positive"
  else if Array.length config.fractions <> m then
    Error
      (Printf.sprintf "fractions has %d entries but the strategy makes %d strata"
         (Array.length config.fractions) m)
  else if Array.exists (fun f -> f < 0.) config.fractions then
    Error "fractions must be non-negative"
  else if
    Float.abs (Array.fold_left ( +. ) 0. config.fractions -. 1.) > 1e-9
  then Error "fractions must sum to 1"
  else if
    not
      (sorted_ascending Float.compare (Array.to_list config.fractions))
  then Error "fractions must be non-decreasing (priority to dirtier strata)"
  else
    match config.strategy with
    | By_violations bs when not (sorted_ascending Int.compare bs) ->
      Error "violation boundaries must be ascending"
    | By_cost bs when not (sorted_ascending Float.compare bs) ->
      Error "cost boundaries must be ascending"
    | By_violations _ | By_cost _ -> Ok ()

type report = {
  sample : (int * Tuple.t) list;
  strata_sizes : int array;
  drawn : int array;
  inaccurate : int array;
  p_hat : float;
  z : float;
  z_critical : float;
  accepted : bool;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>strata sizes: %s@,drawn: %s@,inaccurate: %s@,p_hat=%.4f z=%.3f \
     z_critical=%.3f -> %s@]"
    (String.concat " " (Array.to_list (Array.map string_of_int r.strata_sizes)))
    (String.concat " " (Array.to_list (Array.map string_of_int r.drawn)))
    (String.concat " " (Array.to_list (Array.map string_of_int r.inaccurate)))
    r.p_hat r.z r.z_critical
    (if r.accepted then "ACCEPT (inaccuracy below bound)" else "REJECT (needs another round)")

let stratum_of config ~original ~sigma =
  match config.strategy with
  | By_violations boundaries ->
    let counts = Violation.vio_counts original sigma in
    fun (t_orig : Tuple.t) (_t_repaired : Tuple.t) ->
      let vio =
        match Hashtbl.find_opt counts (Tuple.tid t_orig) with
        | Some n -> n
        | None -> 0
      in
      List.fold_left (fun s b -> if vio >= b then s + 1 else s) 0 boundaries
  | By_cost boundaries ->
    fun t_orig t_repaired ->
      let cost = Cost.tuple_change ~original:t_orig ~repaired:t_repaired in
      List.fold_left (fun s b -> if cost >= b then s + 1 else s) 0 boundaries

let inspect ?(seed = 42) ?(deadline = Deadline.never) config ~original ~repair
    ~sigma ~oracle =
  Trace.span ~cat:"engine"
    ~args:(fun () ->
      [
        ("tuples", Dq_obs.Json.Int (Relation.cardinality repair));
        ("clauses", Dq_obs.Json.Int (Array.length sigma));
      ])
    "sampling.inspect"
  @@ fun () ->
  match validate_config config with
  | Error msg -> Error (Dq_error.Invalid_config ("Sampling.inspect: " ^ msg))
  | Ok () when Deadline.expired deadline ->
    (* A sampling verdict is accept-or-reject: there is no meaningful
       partial answer, so an expired deadline — checked on entry and
       between the stratify and score phases — fails outright. *)
    Error Dq_error.Deadline_exceeded
  | Ok () ->
    Metrics.incr m_inspections;
    let phases = ref [] in
    let m = n_strata config in
    let sizes = Array.make m 0 in
    let reservoirs =
      Array.init m (fun i ->
          let capacity =
            int_of_float
              (Float.round
                 (config.fractions.(i) *. float_of_int config.sample_size))
          in
          Reservoir.create ~seed:(seed + i) capacity)
    in
    Trace.span ~cat:"phase" ~phases ~timer:m_t_stratify "stratify" (fun () ->
        let stratum = stratum_of config ~original ~sigma in
        Relation.iter
          (fun t' ->
            match Relation.find original (Tuple.tid t') with
            | None -> () (* repairs preserve tids; ignore strays *)
            | Some t ->
              let s = stratum t t' in
              sizes.(s) <- sizes.(s) + 1;
              Reservoir.add reservoirs.(s) (s, t'))
          repair);
    Deadline.tick deadline;
    if Deadline.expired deadline then Error Dq_error.Deadline_exceeded
    else begin
    let sample =
      List.concat_map Reservoir.contents (Array.to_list reservoirs)
    in
    let drawn = Array.make m 0 in
    let inaccurate = Array.make m 0 in
    let r =
      Trace.span ~cat:"phase" ~phases ~timer:m_t_score "score" @@ fun () ->
      List.iter
        (fun (s, t') ->
          drawn.(s) <- drawn.(s) + 1;
          if oracle t' then inaccurate.(s) <- inaccurate.(s) + 1)
        sample;
      (* Weighted inaccuracy estimate: scale each stratum's rejects by the
         inverse sampling fraction s_i = |P_i| / drawn_i, then divide by the
         total population.  (The paper prints Σ|P_i|·s_i in the denominator,
         which does not reduce to e/k in the single-stratum case; Σ|P_i| is
         the intended normaliser.) *)
      let estimated_bad = ref 0. in
      let population = ref 0 in
      Array.iteri
        (fun i size ->
          population := !population + size;
          if drawn.(i) > 0 then begin
            let s_i = float_of_int size /. float_of_int drawn.(i) in
            estimated_bad :=
              !estimated_bad +. (float_of_int inaccurate.(i) *. s_i)
          end)
        sizes;
      let p_hat =
        if !population = 0 then 0.
        else !estimated_bad /. float_of_int !population
      in
      let k = Array.fold_left ( + ) 0 drawn in
      Metrics.add m_drawn k;
      let k = max k 1 in
      let z = Stats.z_statistic ~p_hat ~epsilon:config.epsilon ~sample_size:k in
      let z_critical = Stats.critical_value ~confidence:config.confidence in
      {
        sample;
        strata_sizes = sizes;
        drawn;
        inaccurate;
        p_hat;
        z;
        z_critical;
        accepted = z <= -.z_critical;
      }
    in
    let ints a =
      Dq_obs.Json.List
        (Array.to_list (Array.map (fun n -> Dq_obs.Json.Int n) a))
    in
    let obs =
      Report.make ~engine:"sampling"
        ~summary:
          [
            ("strata_sizes", ints r.strata_sizes);
            ("drawn", ints r.drawn);
            ("inaccurate", ints r.inaccurate);
            ("p_hat", Dq_obs.Json.Float r.p_hat);
            ("z", Dq_obs.Json.Float r.z);
            ("z_critical", Dq_obs.Json.Float r.z_critical);
            ("accepted", Dq_obs.Json.Bool r.accepted);
          ]
        ~phases:!phases ()
    in
    Ok (r, obs)
    end
