open Dq_relation

type t = {
  tables : Value.t Vkey.Table.t option array;
      (* by clause id; only wildcard-RHS clauses read or write a table *)
  wild : (Cfd.t * Value.t Vkey.Table.t) list;
      (* the wildcard-RHS clauses with their tables, in Σ order *)
  (* clauses partitioned for O(probes + matches) per-tuple checking:
     anchored on their first constant LHS pattern when they have one *)
  plain : Cfd.t list;
  anchored : (int * Value.t, Cfd.t list) Hashtbl.t;
}

let partition sigma =
  let plain = ref [] in
  let anchored = Hashtbl.create 256 in
  Array.iter
    (fun cfd ->
      let lhs = Cfd.lhs cfd and pats = Cfd.lhs_patterns cfd in
      let anchor = ref None in
      Array.iteri
        (fun i pos ->
          if !anchor = None then
            match pats.(i) with
            | Pattern.Const c -> anchor := Some (pos, c)
            | Pattern.Wild -> ())
        lhs;
      match !anchor with
      | None -> plain := cfd :: !plain
      | Some key ->
        let prev =
          match Hashtbl.find_opt anchored key with Some l -> l | None -> []
        in
        Hashtbl.replace anchored key (cfd :: prev))
    sigma;
  (List.rev !plain, anchored)

let add_tuple idx t =
  List.iter
    (fun (cfd, table) ->
      if Cfd.applies_lhs cfd t then begin
        let v = Tuple.get t (Cfd.rhs cfd) in
        if not (Value.is_null v) then begin
          let key = Cfd.lhs_key cfd t in
          if not (Vkey.Table.mem table key) then Vkey.Table.add table key v
        end
      end)
    idx.wild

let build sigma rel =
  let plain, anchored = partition sigma in
  let tables =
    Array.map
      (fun cfd ->
        if Cfd.is_constant cfd then None else Some (Vkey.Table.create 16))
      sigma
  in
  let wild =
    Array.map2 (fun cfd -> Option.map (fun table -> (cfd, table))) sigma tables
    |> Array.to_list |> List.filter_map Fun.id
  in
  let idx = { tables; wild; plain; anchored } in
  Relation.iter (fun t -> add_tuple idx t) rel;
  idx

let expected_rhs idx cfd t =
  if not (Cfd.applies_lhs cfd t) then None
  else
    match (Cfd.rhs_pattern cfd, idx.tables.(Cfd.id cfd)) with
    | Pattern.Const a, _ -> Some a
    | Pattern.Wild, Some table -> Vkey.Table.find_opt table (Cfd.lhs_key cfd t)
    | Pattern.Wild, None -> None

let violates idx cfd t =
  match expected_rhs idx cfd t with
  | None -> false
  | Some expected ->
    let v = Tuple.get t (Cfd.rhs cfd) in
    (not (Value.is_null v)) && not (Value.equal v expected)

let vio idx t =
  let n = ref 0 in
  let check cfd = if violates idx cfd t then incr n in
  List.iter check idx.plain;
  for p = 0 to Tuple.arity t - 1 do
    match Hashtbl.find_opt idx.anchored (p, Tuple.get t p) with
    | Some cfds -> List.iter check cfds
    | None -> ()
  done;
  !n

let vio_subset idx clauses t =
  List.fold_left
    (fun n cfd -> if violates idx cfd t then n + 1 else n)
    0 clauses
