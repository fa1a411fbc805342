open Dq_relation
open Dq_cfd
open Dq_core
open Helpers

let clean_env () =
  let sigma = fig1_sigma () in
  let repair, _ = Helpers.ok (Batch_repair.repair (fig1_db ()) sigma) in
  (repair, sigma)

let fresh values = Tuple.create ~tid:777 (Array.map Value.of_string values)

let test_clean_tuple_untouched () =
  let repr, sigma = clean_env () in
  let env = Tuple_resolve.make_env repr sigma in
  let t =
    fresh [| "a50"; "Clock"; "9.99"; "215"; "8983490"; "Walnut"; "PHI"; "PA"; "19014" |]
  in
  let rt = Tuple_resolve.resolve env t in
  Alcotest.(check bool) "no change" true (Tuple.equal_values t rt);
  Alcotest.(check int) "same tid" 777 (Tuple.tid rt)

let test_resolved_tuple_is_insertable () =
  let repr, sigma = clean_env () in
  let env = Tuple_resolve.make_env repr sigma in
  let t =
    (* conflicting city for a known zip AND a known (AC, PN) *)
    fresh [| "a50"; "Clock"; "9.99"; "215"; "8983490"; "Walnut"; "LA"; "CA"; "19014" |]
  in
  Alcotest.(check bool) "violates before" true (Tuple_resolve.vio_against env t > 0);
  let rt = Tuple_resolve.resolve env t in
  Alcotest.(check int) "violates nothing after" 0 (Tuple_resolve.vio_against env rt);
  Relation.add repr rt;
  Alcotest.(check bool) "relation stays clean" true (Violation.satisfies repr sigma)

let test_weights_steer_the_choice () =
  let repr, sigma = clean_env () in
  let env = Tuple_resolve.make_env repr sigma in
  (* Same contradiction, but trusted city vs untrusted zip: the resolver
     should prefer touching the low-weight attribute. *)
  let values =
    Array.map Value.of_string
      [| "a50"; "Clock"; "9.99"; "999"; "0000000"; "Canel"; "NYC"; "NY"; "19014" |]
  in
  let weights = [| 1.; 1.; 1.; 1.; 1.; 1.; 0.9; 0.9; 0.05 |] in
  let t = Tuple.create ~tid:778 ~weights values in
  let rt = Tuple_resolve.resolve env t in
  Alcotest.(check int) "clean after" 0 (Tuple_resolve.vio_against env rt);
  Alcotest.check value "trusted city kept" (Value.string "NYC")
    (Tuple.get rt (Schema.position_exn order_schema "CT"));
  Alcotest.(check bool) "zip changed instead" false
    (Value.equal (Tuple.get rt (Schema.position_exn order_schema "zip"))
       (Value.int 19014))

let test_k1_vs_k2 () =
  let repr, sigma = clean_env () in
  let t =
    fresh [| "a50"; "Clock"; "9.99"; "215"; "8983490"; "Oak"; "NYC"; "NY"; "10012" |]
  in
  List.iter
    (fun k ->
      let env = Tuple_resolve.make_env ~k repr sigma in
      let rt = Tuple_resolve.resolve env t in
      Alcotest.(check int)
        (Printf.sprintf "k=%d yields consistent tuple" k)
        0
        (Tuple_resolve.vio_against env rt))
    [ 1; 2; 3 ]

let test_example_5_1_needs_null_or_zip () =
  (* Example 5.1: with the two CT,ST attributes free there is no
     active-domain assignment satisfying both phi1 and phi2 for t5; the
     resolver must reach for null or also touch zip (k=3). *)
  let repr, sigma = clean_env () in
  let env = Tuple_resolve.make_env ~k:2 repr sigma in
  let t5 =
    fresh [| "a55"; "Mug"; "4.99"; "215"; "8983490"; "Oak"; "NYC"; "NY"; "10012" |]
  in
  let rt = Tuple_resolve.resolve env t5 in
  Alcotest.(check int) "consistent" 0 (Tuple_resolve.vio_against env rt);
  let changed = Tuple.diff_positions t5 rt in
  Alcotest.(check bool) "some attribute had to give" true (changed <> [])

let test_register_affects_later_tuples () =
  let repr, sigma = clean_env () in
  let env = Tuple_resolve.make_env repr sigma in
  (* Insert a tuple binding a fresh id to a name... *)
  let first =
    fresh [| "a77"; "Vase"; "12.00"; "215"; "8983490"; "Walnut"; "PHI"; "PA"; "19014" |]
  in
  let r1 = Tuple_resolve.resolve env first in
  Tuple_resolve.add env r1;
  (* ... a second tuple with the same id but another name now conflicts
     and must be reconciled against the first. *)
  let second =
    Tuple.create ~tid:778
      (Array.map Value.of_string
         [| "a77"; "Base"; "12.00"; "215"; "8983490"; "Walnut"; "PHI"; "PA"; "19014" |])
  in
  Alcotest.(check bool) "second violates phi3" true
    (Tuple_resolve.vio_against env second > 0);
  let r2 = Tuple_resolve.resolve env second in
  Alcotest.(check int) "reconciled" 0 (Tuple_resolve.vio_against env r2);
  Alcotest.check value "takes the registered name" (Value.string "Vase")
    (Tuple.get r2 (Schema.position_exn order_schema "name"))

(* The cluster index over an attribute is a function of its set of
   values, so registering a tuple that adds no value to the domain keeps
   the cached tree (the same physical value); a new value rebuilds it. *)
let test_cluster_rebuilt_only_when_domain_grows () =
  let repr, sigma = clean_env () in
  let env = Tuple_resolve.make_env repr sigma in
  let ct = Schema.position_exn order_schema "CT" in
  let before = Tuple_resolve.cluster env ct in
  Alcotest.(check bool) "cached between uses" true
    (Tuple_resolve.cluster env ct == before);
  let known = Tuple.create ~tid:900 (Tuple.values (List.hd (Relation.to_list repr))) in
  Tuple_resolve.add env known;
  Alcotest.(check bool) "known values keep the cluster" true
    (Tuple_resolve.cluster env ct == before);
  let newcomer =
    fresh [| "a90"; "Lamp"; "5.00"; "215"; "1111111"; "Oak"; "Springfield"; "PA"; "19014" |]
  in
  Tuple_resolve.add env newcomer;
  let after = Tuple_resolve.cluster env ct in
  Alcotest.(check bool) "a new value replaces the cluster" false (after == before);
  Alcotest.(check int) "the new tree holds the new value"
    (Cluster_index.size before + 1) (Cluster_index.size after)

(* [delete] keeps a cached tree while its attribute's domain kept its
   size, and drops it once a value left: a later tuple could bring the
   size back with another value, and a tree kept by size would then
   miss it. *)
let test_delete_drops_only_shrunk_clusters () =
  let repr, sigma = clean_env () in
  let env = Tuple_resolve.make_env repr sigma in
  let ct = Schema.position_exn order_schema "CT" in
  let str = Schema.position_exn order_schema "STR" in
  let lamp =
    fresh [| "a90"; "Lamp"; "5.00"; "215"; "1111111"; "Oak"; "Springfield"; "PA"; "19014" |]
  in
  Tuple_resolve.add env lamp;
  let ct_tree = Tuple_resolve.cluster env ct in
  let str_tree = Tuple_resolve.cluster env str in
  let twin = Tuple.create ~tid:778 (Tuple.values (List.hd (Relation.to_list repr))) in
  Tuple_resolve.add env twin;
  Tuple_resolve.delete env [ 778 ];
  Alcotest.(check bool) "no value left: the tree stays" true
    (Tuple_resolve.cluster env ct == ct_tree);
  Tuple_resolve.delete env [ 777 ];
  let sized_alike =
    fresh [| "a91"; "Lamp"; "5.00"; "215"; "1111111"; "Elm"; "Shelbyville"; "PA"; "19014" |]
  in
  Tuple_resolve.add env sized_alike;
  let after = Tuple_resolve.cluster env ct in
  Alcotest.(check int) "the domain is back to its size" (Cluster_index.size ct_tree)
    (Cluster_index.size after);
  Alcotest.(check (list value)) "its tree holds the new value"
    [ Value.string "Shelbyville" ]
    (Cluster_index.nearest after (Value.string "Shelbyville") ~k:1);
  Alcotest.(check bool) "STR lost Oak and gained Elm: rebuilt too" false
    (Tuple_resolve.cluster env str == str_tree)

let test_invalid_k () =
  let repr, sigma = clean_env () in
  Alcotest.check_raises "k=0 rejected"
    (Invalid_argument "Tuple_resolve.make_env: k must be >= 1") (fun () ->
      ignore (Tuple_resolve.make_env ~k:0 repr sigma))

(* ---- a kept environment against a fresh one ------------------------- *)

(* The operations a serve session applies to its environment.  Tuples
   are resolved against the kept environment before they are added, so
   the relation stays clean.  Positions index the relation in insertion
   order, modulo its size, so a delete may hit any tuple. *)
type env_op =
  | Add of Value.t array
  | Delete of int list
  | Replace of int * Value.t array
      (** delete one tuple and add a new one under its tid, with no
          check in between: the new value can bring a domain back to
          the size it had with another set *)

(* Twice the values of [Helpers.Gen], so that a domain is rarely full
   and a replaced tuple often takes a value with it and brings another. *)
let pool = List.init 10 (fun i -> Value.string (Printf.sprintf "v%d" i))

let row_gen =
  QCheck.Gen.(array_size (return (List.length Helpers.Gen.attrs)) (oneofl pool))

let env_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun r -> Add r) row_gen);
      (2, map (fun l -> Delete l) (list_size (1 -- 3) (0 -- 99)));
      (3, map2 (fun i r -> Replace (i, r)) (0 -- 99) row_gen);
    ]

let env_instance =
  let row r = String.concat ";" (List.map Value.to_string (Array.to_list r)) in
  let print (sigma, ops, probes) =
    String.concat "\n"
      (List.map (Format.asprintf "%a" Cfd.pp) (Array.to_list sigma)
      @ List.map
          (function
            | Add r -> "add " ^ row r
            | Delete l -> "delete " ^ String.concat "," (List.map string_of_int l)
            | Replace (i, r) -> Printf.sprintf "replace %d by %s" i (row r))
          ops
      @ List.map (fun r -> "probe " ^ row r) probes)
  in
  QCheck.make ~print
    QCheck.Gen.(
      triple Helpers.Gen.sigma_gen
        (list_size (1 -- 20) env_op_gen)
        (list_size (1 -- 4) row_gen))

let prop_kept_env_equals_fresh =
  QCheck.Test.make ~count:300
    ~name:"add and delete keep the environment equal to make_env on a copy"
    env_instance (fun (sigma, ops, probes) ->
      let kept = Tuple_resolve.make_env (Relation.create Helpers.Gen.schema) sigma in
      let rel = Tuple_resolve.relation kept in
      let probes = List.mapi (fun i r -> Tuple.create ~tid:(10_000 + i) r) probes in
      let fresh () = Tuple_resolve.make_env (Relation.copy rel) sigma in
      (* A tuple resolved by the kept environment, checked against a
         fresh one. *)
      let resolved t =
        let rt = Tuple_resolve.resolve kept t in
        if not (Tuple.equal_values rt (Tuple_resolve.resolve (fresh ()) t)) then
          QCheck.Test.fail_reportf "resolve of tid %d differs" (Tuple.tid t);
        rt
      in
      let agree () =
        let f = fresh () in
        List.for_all
          (fun p ->
            Tuple_resolve.vio_against kept p = Tuple_resolve.vio_against f p
            && Tuple.equal_values (Tuple_resolve.resolve kept p)
                 (Tuple_resolve.resolve f p))
          probes
        && List.for_all
             (fun pos ->
               let near env q =
                 Cluster_index.nearest (Tuple_resolve.cluster env pos) q ~k:4
               in
               List.for_all
                 (fun q -> List.equal Value.equal (near kept q) (near f q))
                 pool)
             (List.init (List.length Helpers.Gen.attrs) Fun.id)
      in
      let tid_at i =
        let live = Relation.tuples rel in
        Tuple.tid live.(i mod Array.length live)
      in
      let next_tid = ref 1 in
      let fresh_tid () =
        incr next_tid;
        !next_tid
      in
      List.for_all
        (fun op ->
          (match op with
          | Add r ->
            Tuple_resolve.add kept (resolved (Tuple.create ~tid:(fresh_tid ()) r))
          | Delete _ | Replace _ when Relation.cardinality rel = 0 -> ()
          | Delete l -> Tuple_resolve.delete kept (List.map tid_at l)
          | Replace (i, r) ->
            let tid = tid_at i in
            let rt = resolved (Tuple.create ~tid r) in
            Tuple_resolve.delete kept [ tid ];
            Tuple_resolve.add kept rt);
          agree ())
        ops)

let suite =
  [
    Alcotest.test_case "clean tuple untouched" `Quick test_clean_tuple_untouched;
    Alcotest.test_case "resolved tuple insertable" `Quick
      test_resolved_tuple_is_insertable;
    Alcotest.test_case "weights steer the choice" `Quick test_weights_steer_the_choice;
    Alcotest.test_case "k = 1, 2, 3 all consistent" `Quick test_k1_vs_k2;
    Alcotest.test_case "example 5.1" `Quick test_example_5_1_needs_null_or_zip;
    Alcotest.test_case "register affects later tuples" `Quick
      test_register_affects_later_tuples;
    Alcotest.test_case "cluster rebuilt only when the domain grows" `Quick
      test_cluster_rebuilt_only_when_domain_grows;
    Alcotest.test_case "delete drops only the clusters whose domain shrank"
      `Quick test_delete_drops_only_shrunk_clusters;
    Alcotest.test_case "invalid k" `Quick test_invalid_k;
    QCheck_alcotest.to_alcotest prop_kept_env_equals_fresh;
  ]
