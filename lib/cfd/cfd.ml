open Dq_relation

type t = {
  id : int;
  name : string;
  schema : Schema.t;
  lhs : int array;
  rhs : int;
  lhs_pats : Pattern.t array;
  rhs_pat : Pattern.t;
}

module Tableau = struct
  type row = { lhs : Pattern.t list; rhs : Pattern.t list }

  type nonrec t = {
    name : string;
    lhs_attrs : string list;
    rhs_attrs : string list;
    rows : row list;
  }

  let fd ~name ~lhs ~rhs = { name; lhs_attrs = lhs; rhs_attrs = rhs; rows = [] }

  let pp_row ppf { lhs; rhs } =
    let pats ps = String.concat ", " (List.map Pattern.to_string ps) in
    Format.fprintf ppf "(%s || %s)" (pats lhs) (pats rhs)

  let pp ppf t =
    Format.fprintf ppf "@[<v2>%s: [%s] -> [%s] {@,%a@]@,}" t.name
      (String.concat ", " t.lhs_attrs)
      (String.concat ", " t.rhs_attrs)
      (Format.pp_print_list pp_row)
      t.rows
end

let resolve_attr schema a =
  match Schema.position schema a with
  | Some i -> i
  | None ->
    invalid_arg
      (Printf.sprintf "Cfd: unknown attribute %S in schema %s" a
         (Schema.name schema))

let check_lhs lhs =
  if Array.length lhs = 0 then invalid_arg "Cfd: empty LHS";
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun i ->
      if Hashtbl.mem seen i then invalid_arg "Cfd: duplicate LHS attribute";
      Hashtbl.add seen i ())
    lhs

let make ?(name = "cfd") schema ~lhs ~rhs =
  let lhs_attrs = Array.of_list (List.map fst lhs) in
  let lhs_pats = Array.of_list (List.map snd lhs) in
  let lhs = Array.map (resolve_attr schema) lhs_attrs in
  check_lhs lhs;
  let rhs_attr, rhs_pat = rhs in
  { id = 0; name; schema; lhs; rhs = resolve_attr schema rhs_attr; lhs_pats; rhs_pat }

let normalize schema (tab : Tableau.t) =
  let lhs = Array.of_list (List.map (resolve_attr schema) tab.lhs_attrs) in
  check_lhs lhs;
  let rhs = List.map (resolve_attr schema) tab.rhs_attrs in
  if rhs = [] then invalid_arg "Cfd.normalize: empty RHS";
  let rows =
    match tab.rows with
    | [] ->
      [
        Tableau.
          {
            lhs = List.map (fun _ -> Pattern.Wild) tab.lhs_attrs;
            rhs = List.map (fun _ -> Pattern.Wild) tab.rhs_attrs;
          };
      ]
    | rows -> rows
  in
  let n_lhs = Array.length lhs and n_rhs = List.length rhs in
  List.concat_map
    (fun (row : Tableau.row) ->
      if List.length row.lhs <> n_lhs || List.length row.rhs <> n_rhs then
        invalid_arg
          (Printf.sprintf "Cfd.normalize: pattern row arity mismatch in %s"
             tab.name);
      let lhs_pats = Array.of_list row.lhs in
      List.map2
        (fun rhs_attr rhs_pat ->
          { id = 0; name = tab.name; schema; lhs; rhs = rhs_attr; lhs_pats; rhs_pat })
        rhs row.rhs)
    rows

let number clauses = Array.of_list (List.mapi (fun id c -> { c with id }) clauses)

let with_schema schema c =
  let remap i = resolve_attr schema (Schema.attribute c.schema i) in
  { c with schema; lhs = Array.map remap c.lhs; rhs = remap c.rhs }

let id c = c.id

let name c = c.name

let schema c = c.schema

let lhs c = Array.copy c.lhs

let rhs c = c.rhs

let lhs_patterns c = Array.copy c.lhs_pats

let rhs_pattern c = c.rhs_pat

let attrs c = Array.to_list c.lhs @ [ c.rhs ]

let is_constant c = not (Pattern.is_wild c.rhs_pat)

let is_embedded_fd c =
  Pattern.is_wild c.rhs_pat && Array.for_all Pattern.is_wild c.lhs_pats

let embedded_fd c =
  {
    c with
    lhs_pats = Array.map (fun _ -> Pattern.Wild) c.lhs_pats;
    rhs_pat = Pattern.Wild;
  }

let embedded_fd_key c =
  let lhs = Array.copy c.lhs in
  Array.sort Int.compare lhs;
  (c.rhs, lhs)

let same_embedded_fd c1 c2 = embedded_fd_key c1 = embedded_fd_key c2

let embedded_fds clauses =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun c ->
      let key = embedded_fd_key c in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        Some (embedded_fd c)
      end)
    clauses

let applies_lhs c t =
  let rec loop i =
    i >= Array.length c.lhs
    || (Pattern.matches (Tuple.get t c.lhs.(i)) c.lhs_pats.(i) && loop (i + 1))
  in
  loop 0

let rhs_matches c t = Pattern.matches (Tuple.get t c.rhs) c.rhs_pat

let lhs_key c t = Array.map (Tuple.get t) c.lhs

let pp ppf c =
  let attr i = Schema.attribute c.schema i in
  Format.fprintf ppf "%s#%d: [%s] -> [%s] | (%s || %s)" c.name c.id
    (String.concat ", " (Array.to_list (Array.map attr c.lhs)))
    (attr c.rhs)
    (String.concat ", "
       (Array.to_list (Array.map Pattern.to_string c.lhs_pats)))
    (Pattern.to_string c.rhs_pat)
