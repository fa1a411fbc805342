open Dq_relation
open Dq_cfd

type config = {
  max_rounds : int;
  insertion_cost_per_null : float;
  max_key_scan : int;
}

let default_config ?(max_rounds = 4) ?(insertion_cost_per_null = 0.5) () =
  { max_rounds; insertion_cost_per_null; max_key_scan = 4096 }

type stats = {
  rounds : int;
  cells_modified : int;
  tuples_inserted : int;
  cfds_satisfied : bool;
  inds_satisfied : bool;
  runtime : float;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<h>rounds=%d cells_modified=%d inserted=%d cfds_ok=%b inds_ok=%b \
     runtime=%.3fs@]"
    s.rounds s.cells_modified s.tuples_inserted s.cfds_satisfied
    s.inds_satisfied s.runtime

(* Distance between a dangling reference and a candidate referenced key:
   weighted, length-normalised edit distance summed over the key columns. *)
let redirect_cost t lhs key candidate =
  let cost = ref 0. in
  Array.iteri
    (fun i pos ->
      cost :=
        !cost
        +. Cost.change ~weight:(Tuple.weight t pos) key.(i) candidate.(i))
    lhs;
  !cost

(* The cheapest of the first [max_key_scan] keys in [order], the first
   one on ties: a function of the keys' insertion order, not of hashing. *)
let nearest_key config t lhs key order =
  let best = ref None in
  let scanned = ref 0 in
  (try
     Queue.iter
       (fun candidate ->
         incr scanned;
         if !scanned > config.max_key_scan then raise Exit;
         let c = redirect_cost t lhs key candidate in
         match !best with
         | Some (_, bc) when bc <= c -> ()
         | _ -> best := Some (candidate, c))
       order
   with Exit -> ());
  !best

(* Resolve every dangling reference of one IND; returns (modified cells,
   inserted tuples). *)
let resolve_ind config db ind =
  let r1 = Database.find_exn db (Ind.lhs_relation ind) in
  let r2 = Database.find_exn db (Ind.rhs_relation ind) in
  let lhs = Ind.lhs_positions ind and rhs = Ind.rhs_positions ind in
  (* The referenced keys, as a set and in insertion order: [r2]'s
     relation order, then the keys this repair inserts. *)
  let keys = Vkey.Table.create 256 and order = Queue.create () in
  let add_key key =
    if not (Vkey.Table.mem keys key) then begin
      Vkey.Table.add keys key ();
      Queue.add key order
    end
  in
  Relation.iter
    (fun t ->
      let key = Array.map (Tuple.get t) rhs in
      if not (Array.exists Value.is_null key) then add_key key)
    r2;
  let arity2 = Schema.arity (Relation.schema r2) in
  let insertion_cost =
    config.insertion_cost_per_null *. float_of_int (arity2 - Array.length rhs)
  in
  let modified = ref 0 and inserted = ref 0 in
  let dangling =
    Relation.fold
      (fun acc t ->
        match Ind.project_lhs ind t with
        | Some key when not (Vkey.Table.mem keys key) -> (t, key) :: acc
        | Some _ | None -> acc)
      [] r1
    |> List.rev
  in
  List.iter
    (fun (t, key) ->
      let redirect = nearest_key config t lhs key order in
      match redirect with
      | Some (candidate, c) when c <= insertion_cost ->
        Array.iteri
          (fun i pos ->
            if not (Value.equal (Tuple.get t pos) candidate.(i)) then begin
              Relation.set_value r1 t pos candidate.(i);
              incr modified
            end)
          lhs;
        (* the key set is unchanged: candidate was already present *)
        ()
      | Some _ | None ->
        (* insert a referenced tuple carrying the key, null elsewhere *)
        let values = Array.make arity2 Value.null in
        Array.iteri (fun i pos -> values.(pos) <- key.(i)) rhs;
        ignore (Relation.insert r2 values);
        incr inserted;
        add_key key)
    dangling;
  (!modified, !inserted)

let validate db cfds inds =
  List.iter
    (fun (name, _) ->
      if not (Database.mem db name) then
        invalid_arg
          (Printf.sprintf "Ind_repair.repair: unknown relation %S in cfds" name))
    cfds;
  List.iter
    (fun ind ->
      List.iter
        (fun name ->
          if not (Database.mem db name) then
            invalid_arg
              (Printf.sprintf "Ind_repair.repair: unknown relation %S in ind %s"
                 name (Ind.name ind)))
        [ Ind.lhs_relation ind; Ind.rhs_relation ind ])
    inds

let cfds_clean db cfds =
  List.for_all
    (fun (name, sigma) -> Violation.satisfies (Database.find_exn db name) sigma)
    cfds

let repair ?(config = default_config ()) db ~cfds ~inds =
  let started = Unix.gettimeofday () in
  validate db cfds inds;
  let db = Database.copy db in
  let cells_modified = ref 0 and tuples_inserted = ref 0 in
  let rounds = ref 0 in
  let continue = ref true in
  while !continue && !rounds < config.max_rounds do
    incr rounds;
    let changed_this_round = ref false in
    (* 1. per-relation CFD repair, swapping the repaired copies in *)
    List.iter
      (fun (name, sigma) ->
        let rel = Database.find_exn db name in
        if not (Violation.satisfies rel sigma) then begin
          let repaired, stats =
            match Batch_repair.repair rel sigma with
            | Ok (pair, _report) -> pair
            | Error e -> failwith (Dq_error.to_string e)
          in
          cells_modified := !cells_modified + stats.Batch_repair.cells_changed;
          if stats.Batch_repair.cells_changed > 0 then
            changed_this_round := true;
          (* BATCHREPAIR returns a fresh copy with the same tids; write its
             values back into the registered relation *)
          Relation.iter
            (fun t ->
              let src = Relation.find_exn repaired (Tuple.tid t) in
              for pos = 0 to Tuple.arity t - 1 do
                if not (Value.equal (Tuple.get t pos) (Tuple.get src pos)) then
                  Relation.set_value rel t pos (Tuple.get src pos)
              done)
            rel
        end)
      cfds;
    (* 2. IND resolution *)
    List.iter
      (fun ind ->
        let m, i = resolve_ind config db ind in
        cells_modified := !cells_modified + m;
        tuples_inserted := !tuples_inserted + i;
        if m + i > 0 then changed_this_round := true)
      inds;
    if (not !changed_this_round) || (Ind.satisfies db inds && cfds_clean db cfds)
    then continue := false
  done;
  ( db,
    {
      rounds = !rounds;
      cells_modified = !cells_modified;
      tuples_inserted = !tuples_inserted;
      cfds_satisfied = cfds_clean db cfds;
      inds_satisfied = Ind.satisfies db inds;
      runtime = Unix.gettimeofday () -. started;
    } )
