open Dq_relation
open Dq_core

(* A tiny universe: original value of (tid, attr) is "t<tid>a<attr>". *)
let make () =
  Eqclass.create ~arity:4 ~original:(fun ~tid ~attr ->
      Value.string (Printf.sprintf "t%da%d" tid attr))

let test_singletons () =
  let eq = make () in
  let c = Eqclass.cell eq ~tid:3 ~attr:2 in
  Alcotest.(check (pair int int)) "decode" (3, 2) (Eqclass.tid_attr eq c);
  Alcotest.(check bool) "target unfixed" true (Eqclass.target eq c = Eqclass.Unfixed);
  Alcotest.check (Alcotest.testable Value.pp Value.equal) "repr is original"
    (Value.string "t3a2") (Eqclass.repr eq c);
  Alcotest.(check int) "size" 1 (Eqclass.size eq c);
  Alcotest.(check (list (pair int int))) "members" [ (3, 2) ] (Eqclass.members eq c)

let test_attr_bounds () =
  let eq = make () in
  Alcotest.check_raises "attr out of range"
    (Invalid_argument "Eqclass.cell: attribute 4 out of range") (fun () ->
      ignore (Eqclass.cell eq ~tid:0 ~attr:4))

let test_negative_cell () =
  let eq = make () in
  Alcotest.check_raises "negative tid"
    (Invalid_argument "Eqclass.cell: negative tuple id -1") (fun () ->
      ignore (Eqclass.cell eq ~tid:(-1) ~attr:3));
  Alcotest.check_raises "negative cell id"
    (Invalid_argument "Eqclass: negative cell -1") (fun () ->
      ignore (Eqclass.find eq (-1)));
  Alcotest.(check int) "nothing registered" 0 (Eqclass.n_cells eq)

let test_union_merges_members () =
  let eq = make () in
  let c1 = Eqclass.cell eq ~tid:0 ~attr:0 in
  let c2 = Eqclass.cell eq ~tid:1 ~attr:0 in
  let c3 = Eqclass.cell eq ~tid:2 ~attr:0 in
  ignore (Eqclass.union eq c1 c2);
  ignore (Eqclass.union eq c2 c3);
  Alcotest.(check bool) "same class" true (Eqclass.same_class eq c1 c3);
  Alcotest.(check int) "size 3" 3 (Eqclass.size eq c1);
  Alcotest.(check (list (pair int int))) "members"
    [ (0, 0); (1, 0); (2, 0) ]
    (List.sort compare (Eqclass.members eq c1))

let test_union_idempotent () =
  let eq = make () in
  let c1 = Eqclass.cell eq ~tid:0 ~attr:0 in
  let c2 = Eqclass.cell eq ~tid:1 ~attr:0 in
  let r = Eqclass.union eq c1 c2 in
  Alcotest.(check int) "self union" r (Eqclass.union eq c1 c2);
  Alcotest.(check int) "size still 2" 2 (Eqclass.size eq c1)

let test_target_lattice () =
  let eq = make () in
  let c = Eqclass.cell eq ~tid:0 ~attr:0 in
  Eqclass.set_target eq c (Eqclass.Const (Value.string "v"));
  Alcotest.(check bool) "const set" true
    (Eqclass.target eq c = Eqclass.Const (Value.string "v"));
  (* same constant is a no-op, different constant rejected *)
  Eqclass.set_target eq c (Eqclass.Const (Value.string "v"));
  Alcotest.check_raises "const -> other const"
    (Invalid_argument "Eqclass.set_target: illegal move v -> w") (fun () ->
      Eqclass.set_target eq c (Eqclass.Const (Value.string "w")));
  Alcotest.check_raises "const -> unfixed"
    (Invalid_argument "Eqclass.set_target: illegal move v -> _") (fun () ->
      Eqclass.set_target eq c Eqclass.Unfixed);
  (* null is terminal *)
  Eqclass.set_target eq c Eqclass.Null;
  Alcotest.check_raises "null -> const"
    (Invalid_argument "Eqclass.set_target: illegal move null -> v") (fun () ->
      Eqclass.set_target eq c (Eqclass.Const (Value.string "v")))

let test_union_target_join () =
  let eq = make () in
  let c1 = Eqclass.cell eq ~tid:0 ~attr:0 in
  let c2 = Eqclass.cell eq ~tid:1 ~attr:0 in
  Eqclass.set_target eq c2 (Eqclass.Const (Value.string "v"));
  ignore (Eqclass.union eq c1 c2);
  Alcotest.(check bool) "const wins over unfixed" true
    (Eqclass.target eq c1 = Eqclass.Const (Value.string "v"));
  (* null dominates *)
  let c3 = Eqclass.cell eq ~tid:2 ~attr:0 in
  Eqclass.set_target eq c3 Eqclass.Null;
  ignore (Eqclass.union eq c1 c3);
  Alcotest.(check bool) "null dominates" true (Eqclass.target eq c1 = Eqclass.Null)

let test_union_conflicting_constants_rejected () =
  let eq = make () in
  let c1 = Eqclass.cell eq ~tid:0 ~attr:0 in
  let c2 = Eqclass.cell eq ~tid:1 ~attr:0 in
  Eqclass.set_target eq c1 (Eqclass.Const (Value.string "a"));
  Eqclass.set_target eq c2 (Eqclass.Const (Value.string "b"));
  Alcotest.check_raises "distinct constants"
    (Invalid_argument "Eqclass.union: classes with distinct constant targets a / b")
    (fun () -> ignore (Eqclass.union eq c1 c2))

let test_effective () =
  let eq = make () in
  let c = Eqclass.cell eq ~tid:0 ~attr:1 in
  Alcotest.(check bool) "unfixed -> repr" true
    (Value.equal (Eqclass.effective eq c) (Value.string "t0a1"));
  Eqclass.set_target eq c (Eqclass.Const (Value.string "v"));
  Alcotest.(check bool) "const -> const" true
    (Value.equal (Eqclass.effective eq c) (Value.string "v"));
  Eqclass.set_target eq c Eqclass.Null;
  Alcotest.(check bool) "null -> null" true (Value.is_null (Eqclass.effective eq c))

let test_set_repr () =
  let eq = make () in
  let c = Eqclass.cell eq ~tid:0 ~attr:0 in
  Eqclass.set_repr eq c (Value.string "better");
  Alcotest.(check bool) "repr updated" true
    (Value.equal (Eqclass.effective eq c) (Value.string "better"));
  Eqclass.set_target eq c Eqclass.Null;
  Alcotest.check_raises "fixed class rejects set_repr"
    (Invalid_argument "Eqclass.set_repr: representative is fixed once targeted")
    (fun () -> Eqclass.set_repr eq c (Value.string "x"))

let test_counts () =
  let eq = make () in
  let c1 = Eqclass.cell eq ~tid:0 ~attr:0 in
  let c2 = Eqclass.cell eq ~tid:1 ~attr:0 in
  let _c3 = Eqclass.cell eq ~tid:2 ~attr:0 in
  Alcotest.(check int) "3 cells" 3 (Eqclass.n_cells eq);
  Alcotest.(check int) "3 classes" 3 (Eqclass.n_classes eq);
  ignore (Eqclass.union eq c1 c2);
  Alcotest.(check int) "cells stable" 3 (Eqclass.n_cells eq);
  Alcotest.(check int) "2 classes" 2 (Eqclass.n_classes eq);
  let seen = ref 0 in
  Eqclass.iter_roots (fun _ -> incr seen) eq;
  Alcotest.(check int) "iter_roots visits classes" 2 !seen

let prop_union_find_invariants =
  QCheck.Test.make ~name:"random unions keep sizes and membership consistent"
    ~count:100
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let eq =
        Eqclass.create ~arity:1 ~original:(fun ~tid ~attr:_ ->
            Value.int tid)
      in
      let cell i = Eqclass.cell eq ~tid:i ~attr:0 in
      List.iter (fun (i, j) -> ignore (Eqclass.union eq (cell i) (cell j))) pairs;
      (* every cell's members list contains the cell itself, and sizes agree *)
      List.for_all
        (fun i ->
          let ms = Eqclass.members eq (cell i) in
          List.mem (i, 0) ms && List.length ms = Eqclass.size eq (cell i))
        (List.init 20 Fun.id))

(* ---- model-based property ------------------------------------------- *)

(* A naive reference: the partition as a list of classes, each a record
   of its root, target, representative, rank and members in the order
   [Eqclass] promises.  No arrays, no path compression. *)
type mclass = {
  m_root : int;
  m_target : Eqclass.target;
  m_repr : Value.t;
  m_rank : int;
  m_members : (int * int) list;
}

type op =
  | Cell of int * int  (** tid-pool index, attribute *)
  | Union of (int * int) * (int * int)
  | Set_target of (int * int) * Eqclass.target
  | Set_repr of (int * int) * string
  | Snapshot_restore

let model_arity = 3

(* Nulls among the originals make effective values null before any
   [Null] target is set. *)
let model_original ~tid ~attr =
  if (tid + attr) mod 5 = 0 then Value.null
  else Value.string (Printf.sprintf "t%da%d" tid attr)

let pp_op pool = function
  | Cell (i, a) -> Printf.sprintf "cell(%d,%d)" pool.(i) a
  | Union ((i, a), (j, b)) ->
    Printf.sprintf "union((%d,%d),(%d,%d))" pool.(i) a pool.(j) b
  | Set_target ((i, a), t) ->
    Format.asprintf "set_target((%d,%d),%a)" pool.(i) a Eqclass.pp_target t
  | Set_repr ((i, a), v) -> Printf.sprintf "set_repr((%d,%d),%s)" pool.(i) a v
  | Snapshot_restore -> "snapshot+restore"

let gen_model_case =
  QCheck.Gen.(
    let* pool = array_size (1 -- 12) (0 -- 50_000) in
    let n = Array.length pool in
    let cell_gen = pair (0 -- (n - 1)) (0 -- (model_arity - 1)) in
    let const_gen =
      map (fun s -> Eqclass.Const (Value.string s)) (oneofl [ "a"; "b"; "c" ])
    in
    let op_gen =
      frequency
        [
          (3, map (fun (i, a) -> Cell (i, a)) cell_gen);
          (5, map2 (fun c1 c2 -> Union (c1, c2)) cell_gen cell_gen);
          ( 2,
            map2
              (fun c t -> Set_target (c, t))
              cell_gen
              (frequency
                 [ (3, const_gen); (1, return Eqclass.Null);
                   (1, return Eqclass.Unfixed) ]) );
          (1, map2 (fun c v -> Set_repr (c, v)) cell_gen (oneofl [ "x"; "y" ]));
          (1, return Snapshot_restore);
        ]
    in
    let* ops = list_size (0 -- 60) op_gen in
    return (pool, ops))

let arb_model_case =
  QCheck.make
    ~print:(fun (pool, ops) -> String.concat "; " (List.map (pp_op pool) ops))
    gen_model_case

let model_effective m =
  match m.m_target with
  | Eqclass.Unfixed -> m.m_repr
  | Eqclass.Const v -> v
  | Eqclass.Null -> Value.null

let model_upgrade_ok before after =
  match before, after with
  | Eqclass.Unfixed, _ | Eqclass.Const _, Eqclass.Null -> true
  | Eqclass.Const a, Eqclass.Const b -> Value.equal a b
  | Eqclass.Null, Eqclass.Null -> true
  | _ -> false

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let prop_matches_model =
  QCheck.Test.make
    ~name:"random operation sequences agree with a list-of-classes model"
    ~count:200 arb_model_case (fun (pool, ops) ->
      let eq = ref (Eqclass.create ~arity:model_arity ~original:model_original) in
      let model = ref [] in
      let cell_of (tid, attr) = (tid * model_arity) + attr in
      let class_of c =
        List.find
          (fun m -> List.exists (fun ta -> cell_of ta = c) m.m_members)
          !model
      in
      let replace m m' =
        model := List.map (fun x -> if x.m_root = m.m_root then m' else x) !model
      in
      (* Register a cell in both; return its id. *)
      let cell (i, attr) =
        let tid = pool.(i) in
        let c = Eqclass.cell !eq ~tid ~attr in
        if not (List.exists (fun m -> List.mem (tid, attr) m.m_members) !model)
        then
          model :=
            {
              m_root = c;
              m_target = Eqclass.Unfixed;
              m_repr = model_original ~tid ~attr;
              m_rank = 0;
              m_members = [ (tid, attr) ];
            }
            :: !model;
        c
      in
      let step = function
        | Cell (i, a) -> ignore (cell (i, a)); true
        | Union (x, y) -> (
          let c1 = cell x and c2 = cell y in
          let m1 = class_of c1 and m2 = class_of c2 in
          if m1.m_root = m2.m_root then Eqclass.union !eq c1 c2 = m1.m_root
          else
            let joined =
              match m1.m_target, m2.m_target with
              | Eqclass.Unfixed, t | t, Eqclass.Unfixed -> Some t
              | Eqclass.Null, _ | _, Eqclass.Null -> Some Eqclass.Null
              | Eqclass.Const a, Eqclass.Const b ->
                if Value.equal a b then Some (Eqclass.Const a) else None
            in
            match joined with
            | None -> raises_invalid (fun () -> Eqclass.union !eq c1 c2)
            | Some t ->
              let root, child =
                if m1.m_rank >= m2.m_rank then (m1, m2) else (m2, m1)
              in
              model := List.filter (fun m -> m.m_root <> child.m_root) !model;
              replace root
                {
                  root with
                  m_target = t;
                  m_members = List.rev_append child.m_members root.m_members;
                  m_rank =
                    (if root.m_rank = child.m_rank then root.m_rank + 1
                     else root.m_rank);
                };
              Eqclass.union !eq c1 c2 = root.m_root)
        | Set_target (x, t) ->
          let c = cell x in
          let m = class_of c in
          if model_upgrade_ok m.m_target t then begin
            Eqclass.set_target !eq c t;
            replace m { m with m_target = t };
            true
          end
          else raises_invalid (fun () -> Eqclass.set_target !eq c t)
        | Set_repr (x, v) ->
          let c = cell x in
          let m = class_of c in
          if m.m_target = Eqclass.Unfixed then begin
            Eqclass.set_repr !eq c (Value.string v);
            replace m { m with m_repr = Value.string v };
            true
          end
          else
            raises_invalid (fun () ->
                Eqclass.set_repr !eq c (Value.string v))
        | Snapshot_restore ->
          eq := Eqclass.restore ~original:model_original (Eqclass.snapshot !eq);
          true
      in
      let agrees () =
        let e = !eq in
        let classes =
          List.sort (fun a b -> compare a.m_root b.m_root) !model
        in
        let roots = ref [] in
        Eqclass.iter_roots (fun r -> roots := r :: !roots) e;
        List.rev !roots = List.map (fun m -> m.m_root) classes
        && Eqclass.n_classes e = List.length classes
        && Eqclass.n_cells e
           = List.fold_left (fun n m -> n + List.length m.m_members) 0 classes
        && List.for_all
             (fun m ->
               List.for_all
                 (fun ta ->
                   let c = cell_of ta in
                   Eqclass.find e c = m.m_root
                   && Eqclass.target e c = m.m_target
                   && Value.equal (Eqclass.effective e c) (model_effective m)
                   && Eqclass.members e c = m.m_members
                   && Eqclass.size e c = List.length m.m_members
                   && List.for_all
                        (fun m' ->
                          Eqclass.same_class e c m'.m_root
                          = (m'.m_root = m.m_root))
                        classes)
                 m.m_members)
             classes
      in
      List.for_all (fun op -> step op && agrees ()) ops)

let suite =
  [
    Alcotest.test_case "singletons" `Quick test_singletons;
    Alcotest.test_case "attribute bounds" `Quick test_attr_bounds;
    Alcotest.test_case "negative cells rejected" `Quick test_negative_cell;
    Alcotest.test_case "union merges members" `Quick test_union_merges_members;
    Alcotest.test_case "union idempotent" `Quick test_union_idempotent;
    Alcotest.test_case "target lattice" `Quick test_target_lattice;
    Alcotest.test_case "union joins targets" `Quick test_union_target_join;
    Alcotest.test_case "conflicting constants rejected" `Quick
      test_union_conflicting_constants_rejected;
    Alcotest.test_case "effective values" `Quick test_effective;
    Alcotest.test_case "set_repr" `Quick test_set_repr;
    Alcotest.test_case "cell and class counts" `Quick test_counts;
    QCheck_alcotest.to_alcotest prop_union_find_invariants;
    QCheck_alcotest.to_alcotest prop_matches_model;
  ]
