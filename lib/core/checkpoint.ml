open Dq_relation
open Dq_cfd
module Json = Dq_obs.Json
module Provenance = Dq_obs.Provenance

type counters = {
  pass : int;
  steps : int;
  rescans : int;
  merges : int;
  rhs_fixes : int;
  lhs_fixes : int;
  nulls_introduced : int;
}

type t = {
  kind : string;
  fingerprint : int;
  use_dependency_graph : bool;
  counters : counters;
  eq : Eqclass.snapshot;
  trail : Provenance.entry list;
}

let version = 1

let batch_kind = "batch-repair"

let opt_fd_kind = "opt-fd-repair"

let known_kinds = [ batch_kind; opt_fd_kind ]

(* ---- fingerprint ------------------------------------------------------ *)

(* A cheap structural hash over everything that must not change between
   the checkpointing run and the resuming one: schema, tuples (ids,
   values, weights), ruleset and configuration. *)
let fingerprint rel sigma ~use_dependency_graph =
  let h = ref 5381 in
  let mix n = h := ((!h * 33) + n) land 0x3FFFFFFF in
  let schema = Relation.schema rel in
  Array.iter (fun a -> mix (Hashtbl.hash a)) (Schema.attributes schema);
  Relation.iter
    (fun t ->
      mix (Tuple.tid t);
      for i = 0 to Tuple.arity t - 1 do
        mix (Hashtbl.hash (Tuple.get t i));
        mix (Hashtbl.hash (Tuple.weight t i))
      done)
    rel;
  Array.iter (fun cfd -> mix (Hashtbl.hash (Format.asprintf "%a" Cfd.pp cfd))) sigma;
  mix (Bool.to_int use_dependency_graph);
  !h

(* ---- exact value round-trips ------------------------------------------ *)

(* Json renders floats with "%.12g", which is lossy.  Checkpoints encode
   floats as C99 hex literals instead: [float_of_string] reads them back
   bit-for-bit, so resumed cost arithmetic is identical. *)
let float_to_json f = Json.String (Printf.sprintf "%h" f)

let float_of_json = function
  | Json.String s -> (
    match float_of_string_opt s with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "bad float %S" s))
  | _ -> Error "expected a float (hex string)"

let value_to_json = function
  | Value.Null -> Json.Null
  | Value.Int i -> Json.Obj [ ("i", Json.Int i) ]
  | Value.Float f -> Json.Obj [ ("f", float_to_json f) ]
  | Value.String s -> Json.Obj [ ("s", Json.String s) ]

let value_of_json = function
  | Json.Null -> Ok Value.Null
  | Json.Obj [ ("i", Json.Int i) ] -> Ok (Value.Int i)
  | Json.Obj [ ("f", f) ] -> Result.map (fun f -> Value.Float f) (float_of_json f)
  | Json.Obj [ ("s", Json.String s) ] -> Ok (Value.String s)
  | _ -> Error "expected a value"

let target_to_json = function
  | Eqclass.Unfixed -> Json.String "unfixed"
  | Eqclass.Null -> Json.String "null"
  | Eqclass.Const v -> Json.Obj [ ("const", value_to_json v) ]

let target_of_json = function
  | Json.String "unfixed" -> Ok Eqclass.Unfixed
  | Json.String "null" -> Ok Eqclass.Null
  | Json.Obj [ ("const", v) ] ->
    Result.map (fun v -> Eqclass.Const v) (value_of_json v)
  | _ -> Error "expected a target"

(* ---- (de)serialisation helpers ---------------------------------------- *)

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let field name json =
  match Json.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let int_field name json =
  match Json.member name json with
  | Some (Json.Int i) -> Ok i
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let bool_field name json =
  match Json.member name json with
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let list_field name json =
  match Json.member name json with
  | Some (Json.List l) -> Ok l
  | Some _ -> Error (Printf.sprintf "field %S must be a list" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

(* ---- eq snapshot ------------------------------------------------------ *)

let class_to_json (c : Eqclass.class_state) =
  Json.Obj
    [
      ("root", Json.Int c.cls_root);
      ("target", target_to_json c.cls_target);
      ("repr", value_to_json c.cls_repr);
      ("rank", Json.Int c.cls_rank);
      ( "members",
        Json.List
          (List.map
             (fun (tid, attr) -> Json.List [ Json.Int tid; Json.Int attr ])
             c.cls_members) );
    ]

let class_of_json json =
  let* cls_root = int_field "root" json in
  let* target = field "target" json in
  let* cls_target = target_of_json target in
  let* repr = field "repr" json in
  let* cls_repr = value_of_json repr in
  let* cls_rank = int_field "rank" json in
  let* members = list_field "members" json in
  let* cls_members =
    map_result
      (function
        | Json.List [ Json.Int tid; Json.Int attr ] -> Ok (tid, attr)
        | _ -> Error "expected a [tid, attr] pair")
      members
  in
  Ok { Eqclass.cls_root; cls_target; cls_repr; cls_rank; cls_members }

let eq_to_json (s : Eqclass.snapshot) =
  Json.Obj
    [
      ("arity", Json.Int s.snap_arity);
      ("classes", Json.List (List.map class_to_json s.snap_classes));
    ]

(* What [Eqclass.restore] needs: cells inside the array it indexes, and
   each class's root among its own members. *)
let class_in_range arity (c : Eqclass.class_state) =
  List.for_all
    (fun (tid, attr) -> tid >= 0 && attr >= 0 && attr < arity)
    c.cls_members
  && List.exists
       (fun (tid, attr) -> (tid * arity) + attr = c.cls_root)
       c.cls_members

let eq_of_json json =
  let* snap_arity = int_field "arity" json in
  let* classes = list_field "classes" json in
  let* snap_classes = map_result class_of_json classes in
  if snap_arity > 0 && List.for_all (class_in_range snap_arity) snap_classes
  then Ok { Eqclass.snap_arity; snap_classes }
  else Error "equivalence class cells out of range"

(* ---- provenance trail ------------------------------------------------- *)

let entry_to_json (e : Provenance.entry) =
  Json.Obj
    [
      ("tid", Json.Int e.tid);
      ("attr", Json.Int e.attr);
      ("attr_name", Json.String e.attr_name);
      ("old", value_to_json e.old_value);
      ("new", value_to_json e.new_value);
      ( "clause",
        match e.clause with None -> Json.Null | Some c -> Json.String c );
      ("cost", float_to_json e.cost_delta);
      ("pass", Json.Int e.pass);
    ]

let entry_of_json json =
  let* tid = int_field "tid" json in
  let* attr = int_field "attr" json in
  let* attr_name =
    match Json.member "attr_name" json with
    | Some (Json.String s) -> Ok s
    | _ -> Error "field \"attr_name\" must be a string"
  in
  let* old_v = field "old" json in
  let* old_value = value_of_json old_v in
  let* new_v = field "new" json in
  let* new_value = value_of_json new_v in
  let* clause =
    match Json.member "clause" json with
    | Some Json.Null -> Ok None
    | Some (Json.String c) -> Ok (Some c)
    | _ -> Error "field \"clause\" must be a string or null"
  in
  let* cost = field "cost" json in
  let* cost_delta = float_of_json cost in
  let* pass = int_field "pass" json in
  Ok { Provenance.tid; attr; attr_name; old_value; new_value; clause; cost_delta; pass }

(* ---- whole checkpoint ------------------------------------------------- *)

let to_json cp =
  Json.Obj
    [
      ("version", Json.Int version);
      ("kind", Json.String cp.kind);
      ("fingerprint", Json.Int cp.fingerprint);
      ("use_dependency_graph", Json.Bool cp.use_dependency_graph);
      ("pass", Json.Int cp.counters.pass);
      ("steps", Json.Int cp.counters.steps);
      ("rescans", Json.Int cp.counters.rescans);
      ("merges", Json.Int cp.counters.merges);
      ("rhs_fixes", Json.Int cp.counters.rhs_fixes);
      ("lhs_fixes", Json.Int cp.counters.lhs_fixes);
      ("nulls_introduced", Json.Int cp.counters.nulls_introduced);
      ("eq", eq_to_json cp.eq);
      ("trail", Json.List (List.map entry_to_json cp.trail));
    ]

let of_json json =
  let* v = int_field "version" json in
  if v <> version then
    Error
      (Printf.sprintf "unsupported checkpoint version %d (this build reads %d)"
         v version)
  else
    let* kind =
      match Json.member "kind" json with
      | Some (Json.String s) -> Ok s
      | _ -> Error "missing field \"kind\""
    in
    if not (List.mem kind known_kinds) then
      Error (Printf.sprintf "unsupported checkpoint kind %S" kind)
    else
      let* fingerprint = int_field "fingerprint" json in
      let* use_dependency_graph = bool_field "use_dependency_graph" json in
      let* pass = int_field "pass" json in
      let* steps = int_field "steps" json in
      let* rescans = int_field "rescans" json in
      let* merges = int_field "merges" json in
      let* rhs_fixes = int_field "rhs_fixes" json in
      let* lhs_fixes = int_field "lhs_fixes" json in
      let* nulls_introduced = int_field "nulls_introduced" json in
      let* eq_json = field "eq" json in
      let* eq = eq_of_json eq_json in
      let* trail_json = list_field "trail" json in
      let* trail = map_result entry_of_json trail_json in
      Ok
        {
          kind;
          fingerprint;
          use_dependency_graph;
          counters =
            {
              pass;
              steps;
              rescans;
              merges;
              rhs_fixes;
              lhs_fixes;
              nulls_introduced;
            };
          eq;
          trail;
        }

let save path cp =
  Dq_fault.Atomic_io.write_file path (Json.to_string ~minify:true (to_json cp))

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
    match Json.parse text with
    | Error msg -> Error ("not a checkpoint: " ^ msg)
    | Ok json -> of_json json)
