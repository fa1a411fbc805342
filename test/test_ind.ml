open Dq_relation
open Dq_cfd
open Dq_core

(* A two-relation world: orders reference items by id. *)
let item_schema = Schema.make ~name:"item" [ "id"; "iname"; "price" ]

let order_schema = Schema.make ~name:"ord" [ "oid"; "item_id"; "qty" ]

let v = Value.of_string

let build ~items ~orders =
  let db = Database.create () in
  let item_rel = Relation.create item_schema in
  List.iter
    (fun (id, n, p) -> ignore (Relation.insert item_rel [| v id; v n; v p |]))
    items;
  let order_rel = Relation.create order_schema in
  List.iter
    (fun (o, i, q) -> ignore (Relation.insert order_rel [| v o; v i; v q |]))
    orders;
  Database.add db item_rel;
  Database.add db order_rel;
  db

let fk =
  Ind.make ~name:"fk" ~lhs:(order_schema, [ "item_id" ]) ~rhs:(item_schema, [ "id" ]) ()

let test_database_basics () =
  let db = build ~items:[ ("a1", "Pen", "2") ] ~orders:[] in
  Alcotest.(check (list string)) "names in order" [ "item"; "ord" ] (Database.names db);
  Alcotest.(check bool) "mem" true (Database.mem db "item");
  Alcotest.(check bool) "absent" false (Database.mem db "nope");
  Alcotest.(check int) "total cardinality" 1 (Database.total_cardinality db);
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Database.add: relation \"item\" already present")
    (fun () -> Database.add db (Relation.create item_schema));
  let db2 = Database.copy db in
  let t = Relation.find_exn (Database.find_exn db2 "item") 0 in
  Relation.set_value (Database.find_exn db2 "item") t 1 (v "Mutated");
  Alcotest.(check bool) "deep copy" false
    (Tuple.equal_values t (Relation.find_exn (Database.find_exn db "item") 0))

let test_ind_validation () =
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Ind.make: LHS and RHS attribute lists differ in length")
    (fun () ->
      ignore
        (Ind.make ~lhs:(order_schema, [ "item_id"; "qty" ])
           ~rhs:(item_schema, [ "id" ]) ()));
  Alcotest.check_raises "unknown attribute"
    (Invalid_argument "Ind.make: unknown attribute \"bogus\" in ord") (fun () ->
      ignore (Ind.make ~lhs:(order_schema, [ "bogus" ]) ~rhs:(item_schema, [ "id" ]) ()))

let test_violation_detection () =
  let db =
    build
      ~items:[ ("a1", "Pen", "2"); ("a2", "Ink", "5") ]
      ~orders:[ ("o1", "a1", "3"); ("o2", "a9", "1"); ("o3", "a2", "2") ]
  in
  Alcotest.(check (list int)) "dangling o2" [ 1 ] (Ind.violations db fk);
  Alcotest.(check bool) "satisfies false" false (Ind.satisfies db [ fk ]);
  (* nulls are exempt *)
  let orders = Database.find_exn db "ord" in
  Relation.set_value orders (Relation.find_exn orders 1) 1 Value.null;
  Alcotest.(check (list int)) "null reference exempt" [] (Ind.violations db fk)

let test_repair_redirects_typo () =
  (* "a1x" is one edit from the real key "a1": redirect beats insertion. *)
  let db =
    build
      ~items:[ ("a1", "Pen", "2"); ("b7", "Ink", "5") ]
      ~orders:[ ("o1", "a1x", "3") ]
  in
  let repaired, stats = Ind_repair.repair db ~cfds:[] ~inds:[ fk ] in
  Alcotest.(check bool) "inds satisfied" true stats.Ind_repair.inds_satisfied;
  Alcotest.(check int) "no insertion" 0 stats.Ind_repair.tuples_inserted;
  let o = Relation.find_exn (Database.find_exn repaired "ord") 0 in
  Alcotest.(check bool) "redirected to a1" true
    (Value.equal (Tuple.get o 1) (v "a1"))

let test_redirect_tie_goes_to_first_key () =
  (* "a3" is one edit from both "a1" and "a2".  The tie goes to the key
     the item relation holds first, whatever the keys hash to (here "a2"
     comes first in hash order). *)
  let db =
    build
      ~items:[ ("a1", "Pen", "2"); ("a2", "Ink", "5") ]
      ~orders:[ ("o1", "a3", "1") ]
  in
  let repaired, stats = Ind_repair.repair db ~cfds:[] ~inds:[ fk ] in
  Alcotest.(check int) "no insertion" 0 stats.Ind_repair.tuples_inserted;
  let o = Relation.find_exn (Database.find_exn repaired "ord") 0 in
  Alcotest.check Helpers.value "redirected to a1" (v "a1") (Tuple.get o 1)

let test_repair_inserts_for_distant_key () =
  (* No existing key is close: inserting a stub item is cheaper. *)
  let db =
    build
      ~items:[ ("a1", "Pen", "2") ]
      ~orders:[ ("o1", "zzzzzzzzzz", "3") ]
  in
  let config = Ind_repair.default_config ~insertion_cost_per_null:0.3 () in
  let repaired, stats = Ind_repair.repair ~config db ~cfds:[] ~inds:[ fk ] in
  Alcotest.(check bool) "inds satisfied" true stats.Ind_repair.inds_satisfied;
  Alcotest.(check int) "one insertion" 1 stats.Ind_repair.tuples_inserted;
  let items = Database.find_exn repaired "item" in
  Alcotest.(check int) "item table grew" 2 (Relation.cardinality items);
  (* the stub carries the key and nulls elsewhere *)
  let stub =
    Relation.fold
      (fun acc t -> if Value.equal (Tuple.get t 0) (v "zzzzzzzzzz") then Some t else acc)
      None items
  in
  match stub with
  | None -> Alcotest.fail "stub not found"
  | Some t ->
    Alcotest.(check bool) "null name" true (Value.is_null (Tuple.get t 1));
    Alcotest.(check bool) "null price" true (Value.is_null (Tuple.get t 2))

let test_combined_cfd_and_ind () =
  (* Orders carry a redundant price column governed by a CFD keyed on
     item_id; one order has a dangling reference AND a wrong price. *)
  let schema = Schema.make ~name:"sale" [ "sid"; "item_id"; "price" ] in
  let sale = Relation.create schema in
  List.iter
    (fun (s, i, p) -> ignore (Relation.insert sale [| v s; v i; v p |]))
    [ ("s1", "a1", "2"); ("s2", "a1", "9"); ("s3", "a1x", "2") ]
    (* s2 violates the CFD (a1 || 2); s3 dangles *);
  let items = Relation.create item_schema in
  ignore (Relation.insert items [| v "a1"; v "Pen"; v "2" |]);
  let db = Database.create () in
  Database.add db items;
  Database.add db sale;
  let sigma =
    Cfd.number
      [
        Cfd.make schema ~name:"price_rule"
          ~lhs:[ ("item_id", Pattern.const (v "a1")) ]
          ~rhs:("price", Pattern.const (v "2"));
      ]
  in
  let ind =
    Ind.make ~name:"fk" ~lhs:(schema, [ "item_id" ]) ~rhs:(item_schema, [ "id" ]) ()
  in
  let repaired, stats =
    Ind_repair.repair db ~cfds:[ ("sale", sigma) ] ~inds:[ ind ]
  in
  Alcotest.(check bool) "cfds satisfied" true stats.Ind_repair.cfds_satisfied;
  Alcotest.(check bool) "inds satisfied" true stats.Ind_repair.inds_satisfied;
  let sale' = Database.find_exn repaired "sale" in
  Alcotest.(check bool) "price fixed" true
    (Value.equal (Tuple.get (Relation.find_exn sale' 1) 2) (v "2"));
  Alcotest.(check bool) "reference fixed" true
    (Value.equal (Tuple.get (Relation.find_exn sale' 2) 1) (v "a1"))

let test_clean_database_untouched () =
  let db =
    build ~items:[ ("a1", "Pen", "2") ] ~orders:[ ("o1", "a1", "3") ]
  in
  let repaired, stats = Ind_repair.repair db ~cfds:[] ~inds:[ fk ] in
  Alcotest.(check int) "nothing modified" 0 stats.Ind_repair.cells_modified;
  Alcotest.(check int) "nothing inserted" 0 stats.Ind_repair.tuples_inserted;
  Alcotest.(check int) "identical orders" 0
    (Relation.dif (Database.find_exn db "ord") (Database.find_exn repaired "ord"))

let test_unknown_relation_rejected () =
  let db = build ~items:[] ~orders:[] in
  ignore db;
  let db = build ~items:[ ("a1", "Pen", "2") ] ~orders:[] in
  Alcotest.check_raises "unknown cfd relation"
    (Invalid_argument "Ind_repair.repair: unknown relation \"ghost\" in cfds")
    (fun () ->
      ignore (Ind_repair.repair db ~cfds:[ ("ghost", [||]) ] ~inds:[]))

let suite =
  [
    Alcotest.test_case "database basics" `Quick test_database_basics;
    Alcotest.test_case "IND validation" `Quick test_ind_validation;
    Alcotest.test_case "violation detection" `Quick test_violation_detection;
    Alcotest.test_case "repair redirects typos" `Quick test_repair_redirects_typo;
    Alcotest.test_case "redirect ties go to the first key" `Quick
      test_redirect_tie_goes_to_first_key;
    Alcotest.test_case "repair inserts stubs" `Quick
      test_repair_inserts_for_distant_key;
    Alcotest.test_case "combined CFD + IND repair" `Quick test_combined_cfd_and_ind;
    Alcotest.test_case "clean database untouched" `Quick test_clean_database_untouched;
    Alcotest.test_case "unknown relation rejected" `Quick
      test_unknown_relation_rejected;
  ]
