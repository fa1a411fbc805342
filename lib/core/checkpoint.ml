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

let check_resume ~kind ~fingerprint = function
  | Some cp when cp.kind <> kind ->
    Error
      (Dq_error.Invalid_input
         (Printf.sprintf
            "checkpoint kind %S was written by a different engine (this \
             engine reads %S)"
            cp.kind kind))
  | Some cp when cp.fingerprint <> fingerprint ->
    Error
      (Dq_error.Invalid_input
         "checkpoint does not match this input (data, ruleset or \
          configuration changed)")
  | _ -> Ok ()

(* ---- exact value round-trips ------------------------------------------ *)

(* Floats are hex literals ({!Json.hex_float}), so resumed cost
   arithmetic is identical. *)
let value_to_json = function
  | Value.Null -> Json.Null
  | Value.Int i -> Json.Obj [ ("i", Json.Int i) ]
  | Value.Float f -> Json.Obj [ ("f", Json.hex_float f) ]
  | Value.String s -> Json.Obj [ ("s", Json.String s) ]

let value_of_json = function
  | Json.Null -> Ok Value.Null
  | Json.Obj [ ("i", Json.Int i) ] -> Ok (Value.Int i)
  | Json.Obj [ ("f", f) ] ->
    Result.map (fun f -> Value.Float f) (Json.hex_float_of f)
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

let ( let* ) = Result.bind

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
  let* cls_root = Json.int_field "root" json in
  let* target = Json.field "target" json in
  let* cls_target = target_of_json target in
  let* repr = Json.field "repr" json in
  let* cls_repr = value_of_json repr in
  let* cls_rank = Json.int_field "rank" json in
  let* members = Json.list_field "members" json in
  let* cls_members =
    Json.map_result
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
  let* snap_arity = Json.int_field "arity" json in
  let* classes = Json.list_field "classes" json in
  let* snap_classes = Json.map_result class_of_json classes in
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
      ("cost", Json.hex_float e.cost_delta);
      ("pass", Json.Int e.pass);
    ]

let entry_of_json json =
  let* tid = Json.int_field "tid" json in
  let* attr = Json.int_field "attr" json in
  let* attr_name = Json.string_field "attr_name" json in
  let* old_v = Json.field "old" json in
  let* old_value = value_of_json old_v in
  let* new_v = Json.field "new" json in
  let* new_value = value_of_json new_v in
  let* clause =
    match Json.member "clause" json with
    | Some Json.Null -> Ok None
    | Some (Json.String c) -> Ok (Some c)
    | _ -> Error "field \"clause\" must be a string or null"
  in
  let* cost = Json.field "cost" json in
  let* cost_delta = Json.hex_float_of cost in
  let* pass = Json.int_field "pass" json in
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
  let* v = Json.int_field "version" json in
  if v <> version then
    Error
      (Printf.sprintf "unsupported checkpoint version %d (this build reads %d)"
         v version)
  else
    let* kind = Json.string_field "kind" json in
    if not (List.mem kind known_kinds) then
      Error (Printf.sprintf "unsupported checkpoint kind %S" kind)
    else
      let* fingerprint = Json.int_field "fingerprint" json in
      let* use_dependency_graph = Json.bool_field "use_dependency_graph" json in
      let* pass = Json.int_field "pass" json in
      let* steps = Json.int_field "steps" json in
      let* rescans = Json.int_field "rescans" json in
      let* merges = Json.int_field "merges" json in
      let* rhs_fixes = Json.int_field "rhs_fixes" json in
      let* lhs_fixes = Json.int_field "lhs_fixes" json in
      let* nulls_introduced = Json.int_field "nulls_introduced" json in
      let* eq_json = Json.field "eq" json in
      let* eq = eq_of_json eq_json in
      let* trail_json = Json.list_field "trail" json in
      let* trail = Json.map_result entry_of_json trail_json in
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
