open Dq_relation
open Dq_cfd
open Helpers

let test_fig1_detection () =
  let db = fig1_db () in
  let sigma = fig1_sigma () in
  Alcotest.(check bool) "dirty" false (Violation.satisfies db sigma);
  (* t3 (tid 2) and t4 (tid 3) each violate phi1 and phi2. *)
  Alcotest.(check (list int)) "violating tids" [ 2; 3 ]
    (Violation.violating_tids db sigma)

let test_vio_counts_match_paper () =
  let db = fig1_db () in
  let sigma = fig1_sigma () in
  let counts = Violation.vio_counts db sigma in
  (* t3: violates phi1 rows for CT and ST (tp (212,_||_,NYC,NY) gives 2
     clauses) and phi2 rows for CT and ST: 4 single-tuple violations. *)
  Alcotest.(check (option int)) "vio(t3)" (Some 4) (Hashtbl.find_opt counts 2);
  Alcotest.(check (option int)) "vio(t4)" (Some 4) (Hashtbl.find_opt counts 3);
  Alcotest.(check (option int)) "t1 clean" None (Hashtbl.find_opt counts 0);
  Alcotest.(check int) "total" 8 (Violation.total db sigma)

let test_vio_tuple_agrees_with_counts () =
  let db = fig1_db () in
  let sigma = fig1_sigma () in
  let counts = Violation.vio_counts db sigma in
  Relation.iter
    (fun t ->
      let expected =
        match Hashtbl.find_opt counts (Tuple.tid t) with Some n -> n | None -> 0
      in
      Alcotest.(check int)
        (Printf.sprintf "vio_tuple tid %d" (Tuple.tid t))
        expected
        (Violation.vio_tuple db sigma t))
    db

let test_single_tuple_can_violate_cfd () =
  (* Example 2.2: unlike FDs, one tuple alone can violate a CFD. *)
  let schema = Schema.make ~name:"r" [ "A"; "B" ] in
  let rel = Relation.create schema in
  ignore (Relation.insert rel [| Value.string "k"; Value.string "wrong" |]);
  let sigma =
    Cfd.number
      [
        Cfd.make schema ~name:"c"
          ~lhs:[ ("A", Pattern.const (Value.string "k")) ]
          ~rhs:("B", Pattern.const (Value.string "right"));
      ]
  in
  Alcotest.(check int) "one violation from one tuple" 1 (Violation.total rel sigma)

let test_pair_violation_counting () =
  let schema = Schema.make ~name:"r" [ "A"; "B" ] in
  let rel = Relation.create schema in
  let add a b = ignore (Relation.insert rel [| Value.string a; Value.string b |]) in
  (* group x: values 1,1,2 -> the two 1s each conflict with the 2 (1 each),
     the 2 conflicts with both 1s (2). *)
  add "x" "1";
  add "x" "1";
  add "x" "2";
  add "y" "9";
  let sigma =
    Cfd.number (Cfd.normalize schema (Cfd.Tableau.fd ~name:"fd" ~lhs:[ "A" ] ~rhs:[ "B" ]))
  in
  let counts = Violation.vio_counts rel sigma in
  Alcotest.(check (option int)) "first 1" (Some 1) (Hashtbl.find_opt counts 0);
  Alcotest.(check (option int)) "second 1" (Some 1) (Hashtbl.find_opt counts 1);
  Alcotest.(check (option int)) "the 2" (Some 2) (Hashtbl.find_opt counts 2);
  Alcotest.(check int) "total 4" 4 (Violation.total rel sigma)

let test_null_resolves_everything () =
  let schema = Schema.make ~name:"r" [ "A"; "B" ] in
  let rel = Relation.create schema in
  let t1 = Relation.insert rel [| Value.string "x"; Value.string "1" |] in
  let t2 = Relation.insert rel [| Value.string "x"; Value.string "2" |] in
  let sigma =
    Cfd.number (Cfd.normalize schema (Cfd.Tableau.fd ~name:"fd" ~lhs:[ "A" ] ~rhs:[ "B" ]))
  in
  Alcotest.(check bool) "conflict" false (Violation.satisfies rel sigma);
  (* nulling one RHS resolves the pair *)
  Relation.set_value rel t2 1 Value.null;
  Alcotest.(check bool) "null RHS resolves" true (Violation.satisfies rel sigma);
  (* restore, then null an LHS instead: pattern match fails, also resolves *)
  Relation.set_value rel t2 1 (Value.string "2");
  Relation.set_value rel t1 0 Value.null;
  Alcotest.(check bool) "null LHS resolves" true (Violation.satisfies rel sigma)

let test_find_all_covers_all_violators () =
  let db = fig1_db () in
  let sigma = fig1_sigma () in
  let violations = Violation.find_all db sigma in
  let mentioned =
    List.concat_map Violation.tids violations |> List.sort_uniq Int.compare
  in
  Alcotest.(check (list int)) "all violating tids mentioned" [ 2; 3 ] mentioned;
  List.iter
    (fun v ->
      match v with
      | Violation.Single { cfd; _ } ->
        Alcotest.(check bool) "singles come from constant clauses" true
          (Cfd.is_constant cfd)
      | Violation.Pair { cfd; _ } ->
        Alcotest.(check bool) "pairs come from wildcard clauses" false
          (Cfd.is_constant cfd))
    violations

let test_pair_conflict_symmetric () =
  let db = fig1_db () in
  let sigma = fig1_sigma () in
  let t1 = Relation.find_exn db 0 and t2 = Relation.find_exn db 1 in
  Array.iter
    (fun cfd ->
      Alcotest.(check bool) "symmetric" (Violation.pair_conflict cfd t1 t2)
        (Violation.pair_conflict cfd t2 t1))
    sigma

(* ---- the grouping kernel against the naive definition ----------------- *)

(* Instances whose values include nulls and the look-alikes [Int 1],
   [Float 1.] and [String "1"], which detection must keep apart, and whose
   pattern constants may be absent from the data.  Local to these
   properties: [Helpers.Gen] feeds the repair properties. *)
module Kernel_gen = struct
  open QCheck.Gen

  let attrs = [ "A"; "B"; "C"; "D" ]

  let schema = Schema.make ~name:"r" attrs

  let value_gen =
    oneofl
      Value.[ Null; Int 1; Float 1.; String "1"; String "x"; Int 2 ]

  let pattern_gen =
    frequency
      [
        (3, return Pattern.Wild);
        ( 2,
          map Pattern.const
            (oneofl Value.[ Int 1; Float 1.; String "1"; String "x"; String "absent" ]) );
      ]

  (* 1-3 LHS attributes in random order; the RHS may repeat one of them. *)
  let clause_gen =
    let* width = 1 -- 3 in
    let* perm = shuffle_l attrs in
    let lhs_attrs = List.filteri (fun i _ -> i < width) perm in
    let* rhs_attr = oneofl attrs in
    let* lhs_pats = flatten_l (List.map (fun _ -> pattern_gen) lhs_attrs) in
    let* rhs_pat = pattern_gen in
    return
      (Cfd.make schema ~lhs:(List.combine lhs_attrs lhs_pats)
         ~rhs:(rhs_attr, rhs_pat))

  let instance =
    QCheck.make
      (pair
         (map
            (fun rows ->
              let rel = Relation.create schema in
              List.iter (fun r -> ignore (Relation.insert rel r)) rows;
              rel)
            (list_size (0 -- 30) (array_size (return 4) value_gen)))
         (map Cfd.number (list_size (1 -- 6) clause_gen)))
end

(* Everything the scan entry points report, at one job count. *)
let scan pool rel sigma =
  let tuples = Relation.tuples rel in
  let counts = Violation.vio_counts ~pool rel sigma in
  ( Array.map
      (fun t -> Option.value ~default:0 (Hashtbl.find_opt counts (Tuple.tid t)))
      tuples,
    Violation.total ~pool rel sigma,
    Violation.satisfies ~pool rel sigma,
    List.map (Fmt.str "%a" Violation.pp) (Violation.find_all ~pool rel sigma) )

let prop_kernel_oracle =
  QCheck.Test.make ~count:300
    ~name:"detection equals the naive vio(t) at jobs 1 and 4"
    Kernel_gen.instance (fun (rel, sigma) ->
      let tuples = Relation.tuples rel in
      let naive = Array.map (Violation.vio_tuple rel sigma) tuples in
      let counts, total, satisfies, listing =
        Dq_parallel.Pool.with_pool ~jobs:1 (fun pool -> scan pool rel sigma)
      in
      let ok = ref (counts = naive) in
      if total <> Array.fold_left ( + ) 0 naive then ok := false;
      if satisfies <> (total = 0) then ok := false;
      (* Per wildcard clause, each tuple with a conflicting partner gets one
         pair, against the first such partner in relation order. *)
      let position = Hashtbl.create 16 in
      Array.iteri (fun i t -> Hashtbl.replace position (Tuple.tid t) i) tuples;
      let tuple tid = tuples.(Hashtbl.find position tid) in
      let found = Violation.find_all rel sigma in
      List.iter
        (function
          | Violation.Single { tid; cfd } ->
            if not (Violation.violates_constant cfd (tuple tid)) then ok := false
          | Violation.Pair { tid1; tid2; cfd } ->
            let t1 = tuple tid1 in
            let first =
              Array.to_list tuples
              |> List.find_opt (fun t -> Violation.pair_conflict cfd t1 t)
            in
            if Option.map Tuple.tid first <> Some tid2 then ok := false)
        found;
      Array.iter
        (fun cfd ->
          if not (Cfd.is_constant cfd) then
            Array.iter
              (fun t ->
                let pairs =
                  List.filter
                    (function
                      | Violation.Pair { tid1; cfd = c; _ } ->
                        tid1 = Tuple.tid t && Cfd.id c = Cfd.id cfd
                      | Violation.Single _ -> false)
                    found
                in
                let expected =
                  if Array.exists (Violation.pair_conflict cfd t) tuples then 1
                  else 0
                in
                if List.length pairs <> expected then ok := false)
              tuples)
        sigma;
      if List.map (Fmt.str "%a" Violation.pp) found <> listing then ok := false;
      !ok
      && Dq_parallel.Pool.with_pool ~jobs:4 (fun pool -> scan pool rel sigma)
         = (counts, total, satisfies, listing))

let suite =
  [
    Alcotest.test_case "fig1 detection" `Quick test_fig1_detection;
    Alcotest.test_case "vio counts" `Quick test_vio_counts_match_paper;
    Alcotest.test_case "vio_tuple agrees with vio_counts" `Quick
      test_vio_tuple_agrees_with_counts;
    Alcotest.test_case "single tuple violates CFD" `Quick
      test_single_tuple_can_violate_cfd;
    Alcotest.test_case "pair violation counting" `Quick test_pair_violation_counting;
    Alcotest.test_case "null resolves violations" `Quick test_null_resolves_everything;
    Alcotest.test_case "find_all covers violators" `Quick
      test_find_all_covers_all_violators;
    Alcotest.test_case "pair_conflict symmetric" `Quick test_pair_conflict_symmetric;
    QCheck_alcotest.to_alcotest prop_kernel_oracle;
  ]
