open Dq_relation

let schema = Schema.make ~name:"r" [ "A"; "B" ]

let v = Value.of_string

let mk () = Relation.create schema

let test_insert_find () =
  let r = mk () in
  let t = Relation.insert r [| v "a"; v "1" |] in
  Alcotest.(check int) "cardinality" 1 (Relation.cardinality r);
  Alcotest.(check bool) "mem" true (Relation.mem r (Tuple.tid t));
  Alcotest.(check bool) "find" true (Relation.find r (Tuple.tid t) = Some t)

let test_fresh_tids () =
  let r = mk () in
  let t1 = Relation.insert r [| v "a"; v "1" |] in
  let t2 = Relation.insert r [| v "b"; v "2" |] in
  Alcotest.(check bool) "distinct tids" true (Tuple.tid t1 <> Tuple.tid t2)

let test_add_preserves_tid_and_rejects_dup () =
  let r = mk () in
  let t = Tuple.create ~tid:42 [| v "a"; v "1" |] in
  Relation.add r t;
  Alcotest.(check bool) "tid 42 present" true (Relation.mem r 42);
  Alcotest.check_raises "duplicate tid"
    (Invalid_argument "Relation.add: duplicate tid 42") (fun () ->
      Relation.add r (Tuple.copy t));
  (* fresh inserts skip past explicit tids *)
  let t2 = Relation.insert r [| v "b"; v "2" |] in
  Alcotest.(check bool) "next tid above 42" true (Tuple.tid t2 > 42)

let test_delete () =
  let r = mk () in
  let t = Relation.insert r [| v "a"; v "1" |] in
  Alcotest.(check bool) "delete" true (Relation.delete r (Tuple.tid t));
  Alcotest.(check bool) "gone" false (Relation.mem r (Tuple.tid t));
  Alcotest.(check bool) "double delete" false (Relation.delete r (Tuple.tid t));
  Alcotest.(check int) "empty" 0 (Relation.cardinality r)

let test_active_domain_tracking () =
  let r = mk () in
  let t1 = Relation.insert r [| v "x"; v "1" |] in
  let _t2 = Relation.insert r [| v "x"; v "2" |] in
  Alcotest.(check int) "adom A one distinct" 1 (Relation.active_domain_size r 0);
  Alcotest.(check int) "adom B two" 2 (Relation.active_domain_size r 1);
  (* update through set_value keeps adom current *)
  Relation.set_value r t1 0 (v "y");
  Alcotest.(check bool) "y added" true (Relation.in_active_domain r 0 (v "y"));
  Alcotest.(check bool) "x still there (t2)" true (Relation.in_active_domain r 0 (v "x"));
  Relation.set_value r t1 0 (v "x");
  ignore (Relation.delete r (Tuple.tid t1));
  Alcotest.(check bool) "y gone after delete" false
    (Relation.in_active_domain r 0 (v "y"))

let test_nulls_not_in_adom () =
  let r = mk () in
  ignore (Relation.insert r [| Value.null; v "1" |]);
  Alcotest.(check int) "null excluded" 0 (Relation.active_domain_size r 0)

let test_set_value_foreign_tuple () =
  let r = mk () in
  ignore (Relation.insert r [| v "a"; v "1" |]);
  let foreign = Tuple.create ~tid:0 [| v "a"; v "1" |] in
  Alcotest.check_raises "foreign tuple"
    (Invalid_argument "Relation.set_value: tuple not in this relation")
    (fun () -> Relation.set_value r foreign 0 (v "z"))

let test_iteration_order () =
  let r = mk () in
  let tids = List.init 5 (fun i -> Tuple.tid (Relation.insert r [| v (string_of_int i); v "x" |])) in
  let seen = Relation.fold (fun acc t -> Tuple.tid t :: acc) [] r in
  Alcotest.(check (list int)) "insertion order" tids (List.rev seen)

let test_iteration_order_after_deletes () =
  let r = mk () in
  let tids = List.init 100 (fun i -> Tuple.tid (Relation.insert r [| v (string_of_int i); v "x" |])) in
  List.iteri (fun i tid -> if i mod 2 = 0 then ignore (Relation.delete r tid)) tids;
  let expected = List.filteri (fun i _ -> i mod 2 = 1) tids in
  let seen = List.rev (Relation.fold (fun acc t -> Tuple.tid t :: acc) [] r) in
  Alcotest.(check (list int)) "survivors in order" expected seen;
  let last k = List.map Tuple.tid (Relation.last r k) in
  Alcotest.(check (list int)) "last 3 survivors" (List.filteri (fun i _ -> i >= 47) expected) (last 3);
  Alcotest.(check (list int)) "last 0" [] (last 0);
  Alcotest.(check (list int)) "last beyond the size" expected (last 1000);
  ignore (Relation.delete r (List.nth expected 49));
  Alcotest.(check (list int)) "last skips a deleted newest tuple"
    (List.filteri (fun i _ -> i = 47 || i = 48) expected) (last 2)

let test_readd_deleted_tid () =
  let r = mk () in
  let t5 = Tuple.create ~tid:5 [| v "a"; v "1" |] in
  Relation.add r t5;
  ignore (Relation.delete r 5);
  Relation.add r (Tuple.create ~tid:5 [| v "b"; v "2" |]);
  let visited = Relation.fold (fun n _ -> n + 1) 0 r in
  Alcotest.(check int) "cardinality" 1 (Relation.cardinality r);
  Alcotest.(check int) "fold visits one tuple" 1 visited;
  Alcotest.(check int) "tuples" 1 (Array.length (Relation.tuples r));
  Alcotest.(check int) "last" 1 (List.length (Relation.last r 5));
  Alcotest.(check int) "copy" 1 (Relation.cardinality (Relation.copy r));
  (* the very tuple that was deleted, added back *)
  ignore (Relation.delete r 5);
  Relation.add r t5;
  Alcotest.(check (list string)) "the re-added tuple, once" [ "a" ]
    (List.map (fun t -> Value.to_string (Tuple.get t 0)) (Relation.to_list r))

let test_copy_deep () =
  let r = mk () in
  let t = Relation.insert r [| v "a"; v "1" |] in
  let r2 = Relation.copy r in
  Relation.set_value r2 (Relation.find_exn r2 (Tuple.tid t)) 0 (v "z");
  Alcotest.check (Alcotest.testable Value.pp Value.equal) "original intact"
    (v "a") (Tuple.get t 0);
  Alcotest.(check int) "copy dif" 1 (Relation.dif r r2)

let test_dif () =
  let r1 = mk () in
  let r2 = mk () in
  let t1 = Relation.insert r1 [| v "a"; v "1" |] in
  Relation.add r2 (Tuple.copy t1);
  Alcotest.(check int) "identical" 0 (Relation.dif r1 r2);
  Relation.set_value r2 (Relation.find_exn r2 (Tuple.tid t1)) 1 (v "9");
  Alcotest.(check int) "one cell" 1 (Relation.dif r1 r2);
  ignore (Relation.insert r2 [| v "b"; v "2" |]);
  Alcotest.(check int) "extra tuple counts arity" 3 (Relation.dif r1 r2);
  Alcotest.(check int) "symmetric" (Relation.dif r1 r2) (Relation.dif r2 r1)

let test_arity_mismatch () =
  let r = mk () in
  Alcotest.check_raises "bad arity" (Invalid_argument "Relation.insert: arity mismatch")
    (fun () -> ignore (Relation.insert r [| v "a" |]))

(* ---- active domains against a model ---------------------------------- *)

(* Active domains are built on the first query and maintained from then
   on; either way every answer must equal the one recomputed from the
   relation's current tuples. *)
type op =
  | Insert of Value.t array
  | Add of Value.t array (* with a tid past every tid used so far *)
  | Readd of int * Value.t array option
      (* nth deleted tid, as a new tuple with these values or, with
         [None], as the very tuple that was deleted *)
  | Set of int * int * Value.t (* nth live tuple, position, value *)
  | Delete of int (* nth live tuple; past the end deletes an absent tid *)
  | Copy (* continue on a deep copy *)
  | Query of int * Value.t

let adom_pool = Value.[ Null; Int 1; Int 2; Float 1.5; String "x"; String "1" ]

let op_gen ~queries =
  let open QCheck.Gen in
  let value = oneofl adom_pool in
  let row = array_repeat 2 value in
  frequency
    ([
       (4, map (fun r -> Insert r) row);
       (1, map (fun r -> Add r) row);
       (2, map2 (fun i r -> Readd (i, r)) (0 -- 5) (option row));
       (3, map3 (fun i p v -> Set (i, p, v)) (0 -- 20) (0 -- 1) value);
       (2, map (fun i -> Delete i) (0 -- 25));
       (1, return Copy);
     ]
    @ if queries then [ (3, map2 (fun p v -> Query (p, v)) (0 -- 1) value) ] else [])

let show_op =
  let row r = String.concat "," (Array.to_list (Array.map Value.to_display r)) in
  function
  | Insert r -> "insert " ^ row r
  | Add r -> "add " ^ row r
  | Readd (i, Some r) -> Printf.sprintf "re-add deleted #%d as %s" i (row r)
  | Readd (i, None) -> Printf.sprintf "re-add deleted #%d" i
  | Set (i, p, v) -> Printf.sprintf "set #%d.%d=%s" i p (Value.to_display v)
  | Delete i -> Printf.sprintf "delete #%d" i
  | Copy -> "copy"
  | Query (p, v) -> Printf.sprintf "query %d %s" p (Value.to_display v)

(* The model is the live tuples, as (tid, values) in the order of their
   latest add. *)
let model_adom model pos =
  List.filter_map
    (fun (_, row) -> if Value.is_null row.(pos) then None else Some row.(pos))
    model
  |> List.sort_uniq Value.compare

let adom_agrees r model pos v =
  let model = model_adom model pos in
  List.equal Value.equal (Relation.active_domain r pos) model
  && Relation.active_domain_size r pos = List.length model
  && Relation.in_active_domain r pos v = List.exists (Value.equal v) model

let tuples_agree r model =
  let same t (tid, row) =
    Tuple.tid t = tid && Array.for_all2 Value.equal (Tuple.values t) row
  in
  let matches ts model =
    List.compare_lengths ts model = 0 && List.for_all2 same ts model
  in
  let n = List.length model in
  Relation.cardinality r = n
  && Relation.fold (fun k _ -> k + 1) 0 r = n
  && matches (Array.to_list (Relation.tuples r)) model
  && matches (Relation.last r 3) (List.filteri (fun i _ -> i >= n - 3) model)

let run_ops ops =
  let r = ref (mk ()) in
  let model = ref [] and dead = ref [] in
  let ok = ref true and high = ref 0 in
  let append t = model := !model @ [ (Tuple.tid t, Tuple.values t) ] in
  List.iter
    (function
      | Insert row ->
        let t = Relation.insert !r row in
        high := max !high (Tuple.tid t);
        append t
      | Add row ->
        high := !high + 3;
        let t = Tuple.create ~tid:!high row in
        Relation.add !r t;
        append t
      | Readd (i, row) -> (
        match List.nth_opt !dead i with
        | Some old ->
          let t =
            match row with
            | Some row -> Tuple.create ~tid:(Tuple.tid old) row
            | None -> old
          in
          dead := List.filter (fun d -> d != old) !dead;
          Relation.add !r t;
          append t
        | None -> ())
      | Set (i, p, v) -> (
        match List.nth_opt !model i with
        | Some (tid, row) ->
          Relation.set_value !r (Relation.find_exn !r tid) p v;
          row.(p) <- v
        | None -> ())
      | Delete i -> (
        match List.nth_opt !model i with
        | Some (tid, _) ->
          dead := Relation.find_exn !r tid :: !dead;
          ok := !ok && Relation.delete !r tid;
          model := List.filter (fun (tid', _) -> tid' <> tid) !model
        | None -> ok := !ok && not (Relation.delete !r 1_000_000))
      | Copy ->
        r := Relation.copy !r;
        dead := []
      | Query (p, v) -> ok := !ok && adom_agrees !r !model p v)
    ops;
  !ok
  && tuples_agree !r !model
  && List.for_all
       (fun v -> adom_agrees !r !model 0 v && adom_agrees !r !model 1 v)
       adom_pool

let prop_adom_model ~queries name =
  QCheck.Test.make ~name ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (0 -- 40) (op_gen ~queries)))
    run_ops

let suite =
  [
    Alcotest.test_case "insert/find" `Quick test_insert_find;
    Alcotest.test_case "fresh tids" `Quick test_fresh_tids;
    Alcotest.test_case "add preserves tid" `Quick test_add_preserves_tid_and_rejects_dup;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "active domain tracking" `Quick test_active_domain_tracking;
    Alcotest.test_case "nulls not in adom" `Quick test_nulls_not_in_adom;
    Alcotest.test_case "set_value rejects foreign tuples" `Quick
      test_set_value_foreign_tuple;
    Alcotest.test_case "iteration order" `Quick test_iteration_order;
    Alcotest.test_case "iteration order after deletes" `Quick
      test_iteration_order_after_deletes;
    Alcotest.test_case "re-added tid visited once" `Quick
      test_readd_deleted_tid;
    Alcotest.test_case "deep copy" `Quick test_copy_deep;
    Alcotest.test_case "dif" `Quick test_dif;
    Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
    QCheck_alcotest.to_alcotest
      (prop_adom_model ~queries:true "active domains equal the model");
    QCheck_alcotest.to_alcotest
      (prop_adom_model ~queries:false
         "active domains first queried at the end equal the model");
  ]
