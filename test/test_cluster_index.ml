open Dq_relation
open Dq_core

let vs l = List.map Value.of_string l

let test_empty () =
  let t = Cluster_index.build [] in
  Alcotest.(check int) "size" 0 (Cluster_index.size t);
  Alcotest.(check (list string)) "nearest" []
    (List.map Value.to_string (Cluster_index.nearest t (Value.string "x") ~k:3))

let test_nulls_and_duplicates_dropped () =
  let t = Cluster_index.build (Value.null :: vs [ "a"; "a"; "b" ]) in
  Alcotest.(check int) "deduped, null-free" 2 (Cluster_index.size t)

let test_nearest_returns_closest_first () =
  let domain = vs [ "Walnut"; "Spruce"; "Canel"; "Broad"; "Oak"; "Walnot" ] in
  let t = Cluster_index.build domain in
  (match Cluster_index.nearest t (Value.string "Walnut") ~k:2 with
  | first :: second :: _ ->
    Alcotest.(check string) "exact value first" "Walnut" (Value.to_string first);
    Alcotest.(check string) "typo neighbour second" "Walnot"
      (Value.to_string second)
  | _ -> Alcotest.fail "expected two results");
  Alcotest.(check int) "k caps results" 3
    (List.length (Cluster_index.nearest t (Value.string "Oak") ~k:3))

let test_nearest_enumerates_everything () =
  let domain = vs [ "a"; "b"; "c"; "d"; "e" ] in
  let t = Cluster_index.build domain in
  let all = Cluster_index.nearest t (Value.string "q") ~k:100 in
  Alcotest.(check int) "all values reachable" 5 (List.length all);
  Alcotest.(check (list string)) "same set"
    (List.map Value.to_string (List.sort Value.compare domain))
    (List.sort String.compare (List.map Value.to_string all))

let test_find_first () =
  let t = Cluster_index.build (vs [ "10012"; "19014"; "19104" ]) in
  let found =
    Cluster_index.find_first t (Value.string "19015") (fun v ->
        not (Value.equal v (Value.string "19014")))
  in
  Alcotest.(check bool) "found something" true (Option.is_some found);
  Alcotest.(check bool) "respects predicate" false
    (Value.equal (Option.get found) (Value.string "19014"));
  Alcotest.(check (option string)) "no match" None
    (Option.map Value.to_string
       (Cluster_index.find_first t (Value.string "x") (fun _ -> false)))

let test_identical_renderings () =
  (* Int 1 and String "1" render identically; the tree must still hold both. *)
  let t = Cluster_index.build [ Value.int 1; Value.string "1"; Value.int 2 ] in
  Alcotest.(check int) "3 values" 3 (Cluster_index.size t);
  Alcotest.(check int) "all enumerable" 3
    (List.length (Cluster_index.nearest t (Value.int 1) ~k:10))

let test_of_attribute () =
  let schema = Schema.make ~name:"r" [ "A" ] in
  let rel = Relation.create schema in
  List.iter
    (fun s -> ignore (Relation.insert rel [| Value.string s |]))
    [ "x"; "y"; "x" ];
  let t = Cluster_index.of_attribute rel 0 in
  Alcotest.(check int) "distinct adom" 2 (Cluster_index.size t)

let prop_enumeration_complete =
  let word = QCheck.Gen.(string_size ~gen:(char_range 'a' 'd') (1 -- 5)) in
  QCheck.Test.make ~name:"best-first search reaches every leaf" ~count:100
    (QCheck.make QCheck.Gen.(pair (list_size (0 -- 40) word) word))
    (fun (words, query) ->
      let domain = List.sort_uniq String.compare words in
      let t = Cluster_index.build (List.map Value.string domain) in
      let out = Cluster_index.nearest t (Value.string query) ~k:1000 in
      List.length out = List.length domain)

let prop_find_first_finds_members =
  (* The enumeration is approximate in order but must be complete: any
     domain member is reachable through find_first. *)
  let word = QCheck.Gen.(string_size ~gen:(char_range 'a' 'c') (1 -- 4)) in
  QCheck.Test.make ~name:"find_first reaches any domain member" ~count:100
    (QCheck.make QCheck.Gen.(pair (list_size (1 -- 25) word) word))
    (fun (words, query) ->
      let target = Value.string (List.hd words) in
      let t = Cluster_index.build (List.map Value.string words) in
      match Cluster_index.find_first t (Value.string query) (Value.equal target) with
      | Some v -> Value.equal v target
      | None -> false)

let test_nearest_k_nonpositive () =
  let t = Cluster_index.build (vs [ "a"; "b"; "c" ]) in
  Alcotest.(check int) "k = 0" 0
    (List.length (Cluster_index.nearest t (Value.string "a") ~k:0));
  Alcotest.(check int) "k < 0" 0
    (List.length (Cluster_index.nearest t (Value.string "a") ~k:(-1)))

(* ---- the tree against the list-based build it replaced ---------------- *)

(* The build that called [Cost.dl_distance] four times per item and node,
   with its own tree type, kept as the reference. *)
module Reference = struct
  type node =
    | Leaf of { text : string; value : Value.t }
    | Branch of { rep : string; left : node; right : node }

  let distance = Cost.dl_distance

  let pick_seeds texts =
    let farthest_from s =
      fst
        (List.fold_left
           (fun (best, d) t ->
             let d' = distance s t in
             if d' > d then (t, d') else (best, d))
           (s, -1) texts)
    in
    match texts with
    | [] | [ _ ] -> None
    | first :: _ ->
      let a = farthest_from first in
      let b = farthest_from a in
      if String.equal a b then None else Some (a, b)

  let rec build_node items =
    match items with
    | [] -> assert false
    | [ (text, value) ] -> Leaf { text; value }
    | _ -> (
      let texts = List.map fst items in
      match pick_seeds texts with
      | Some (a, b) when not (String.equal a b) ->
        let near_a, near_b =
          List.partition (fun (t, _) -> distance t a <= distance t b) items
        in
        if near_a = [] || near_b = [] then split_half items a
        else
          Branch { rep = a; left = build_node near_a; right = build_node near_b }
      | _ -> split_half items (fst (List.hd items)))

  and split_half items rep =
    let n = List.length items in
    let left = List.filteri (fun i _ -> i < n / 2) items in
    let right = List.filteri (fun i _ -> i >= n / 2) items in
    Branch { rep; left = build_node left; right = build_node right }

  let build values =
    match
      values
      |> List.filter (fun v -> not (Value.is_null v))
      |> List.sort_uniq Value.compare
      |> List.map (fun v -> (Value.to_string v, v))
    with
    | [] -> None
    | items -> Some (build_node items)

  let iter_nearest root query f =
    match root with
    | None -> ()
    | Some root ->
      let q = Value.to_string query in
      let heap = Heap.create () in
      let push node =
        let d =
          match node with
          | Leaf { text; _ } -> distance q text
          | Branch { rep; _ } -> distance q rep
        in
        Heap.add heap ~priority:(float_of_int d) node
      in
      push root;
      let rec drain () =
        match Heap.pop_min heap with
        | None -> ()
        | Some (_, Leaf { value; _ }) -> if not (f value) then drain ()
        | Some (_, Branch { left; right; _ }) ->
          push left;
          push right;
          drain ()
      in
      drain ()

  let enumerate root query =
    let out = ref [] in
    iter_nearest root query (fun v ->
        out := v :: !out;
        false);
    List.rev !out
end

(* Short texts over two or three letters, so that distances tie often,
   and numbers that render alike across constructors. *)
let domain_value =
  let open QCheck.Gen in
  frequency
    [
      (4, map Value.string (string_size ~gen:(char_range 'a' 'c') (0 -- 4)));
      (2, map Value.int (0 -- 12));
      (1, map (fun i -> Value.float (float_of_int i /. 2.)) (0 -- 6));
      ( 2,
        oneofl
          Value.
            [ Int 1; Float 1.; String "1"; String "1."; Int 10; String "01" ] );
    ]

let prop_tree_unchanged =
  QCheck.Test.make ~name:"trees equal the list-based build" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(
         pair (list Value.to_display) (list Value.to_display))
       QCheck.Gen.(
         pair (list_size (0 -- 60) domain_value) (list_size (0 -- 3) domain_value)))
    (fun (values, queries) ->
      let t = Cluster_index.build values and r = Reference.build values in
      let k = Cluster_index.size t in
      List.for_all
        (fun q ->
          List.equal Value.equal
            (Cluster_index.nearest t q ~k)
            (Reference.enumerate r q))
        (values @ queries))

let suite =
  [
    Alcotest.test_case "empty domain" `Quick test_empty;
    Alcotest.test_case "nulls/duplicates dropped" `Quick
      test_nulls_and_duplicates_dropped;
    Alcotest.test_case "closest first" `Quick test_nearest_returns_closest_first;
    Alcotest.test_case "enumeration complete" `Quick
      test_nearest_enumerates_everything;
    Alcotest.test_case "find_first" `Quick test_find_first;
    Alcotest.test_case "identical renderings" `Quick test_identical_renderings;
    Alcotest.test_case "of_attribute" `Quick test_of_attribute;
    QCheck_alcotest.to_alcotest prop_enumeration_complete;
    QCheck_alcotest.to_alcotest prop_find_first_finds_members;
    Alcotest.test_case "nearest with k <= 0" `Quick test_nearest_k_nonpositive;
    QCheck_alcotest.to_alcotest prop_tree_unchanged;
  ]
