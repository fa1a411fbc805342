open Dq_relation

type t = {
  tables : Value.t Vkey.Table.t option array;
      (* by clause id; only wildcard-RHS clauses read or write a table *)
  wild : (Cfd.t * Value.t Vkey.Table.t) list;
      (* the wildcard-RHS clauses with their tables, in Σ order *)
  clauses : Cfd.t Anchor_index.t; (* all of Σ, by anchor *)
}

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

let reindex idx rel =
  List.iter (fun (_, table) -> Vkey.Table.clear table) idx.wild;
  Relation.iter (add_tuple idx) rel

let build sigma rel =
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
  let idx =
    { tables; wild; clauses = Anchor_index.build Fun.id (Array.to_list sigma) }
  in
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

let iter_violated idx t f =
  Anchor_index.iter idx.clauses (Tuple.get t) (fun cfd ->
      if violates idx cfd t then f cfd)

let vio idx t =
  let n = ref 0 in
  iter_violated idx t (fun _ -> incr n);
  !n
