open Dq_relation

type 'a t = {
  plain : 'a list; (* in list order *)
  anchored : (int * Value.t, 'a list) Hashtbl.t;
  (* anchor -> its items, later items of the list first *)
  positions : int list;
}

let anchor cfd =
  let lhs = Cfd.lhs cfd and pats = Cfd.lhs_patterns cfd in
  let rec first i =
    if i >= Array.length lhs then None
    else
      match pats.(i) with
      | Pattern.Const c -> Some (lhs.(i), c)
      | Pattern.Wild -> first (i + 1)
  in
  first 0

let build clause items =
  let plain = ref [] and positions = ref [] in
  let anchored = Hashtbl.create 256 in
  List.iter
    (fun x ->
      match anchor (clause x) with
      | None -> plain := x :: !plain
      | Some ((p, _) as key) -> (
        match Hashtbl.find_opt anchored key with
        | Some l -> Hashtbl.replace anchored key (x :: l)
        | None ->
          Hashtbl.add anchored key [ x ];
          positions := p :: !positions))
    items;
  {
    plain = List.rev !plain;
    anchored;
    positions = List.sort_uniq Int.compare !positions;
  }

let iter idx value_at f =
  List.iter f idx.plain;
  List.iter
    (fun p ->
      match Hashtbl.find_opt idx.anchored (p, value_at p) with
      | Some items -> List.iter f items
      | None -> ())
    idx.positions

let positions idx = idx.positions
