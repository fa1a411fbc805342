open Dq_relation
open Dq_cfd
open Dq_core
open Helpers

let clean_db_and_sigma () =
  let sigma = fig1_sigma () in
  let repair, _ = Helpers.ok (Batch_repair.repair (fig1_db ()) sigma) in
  (repair, sigma)

let find_clause sigma ~name ~rhs_attr =
  let rhs = Schema.position_exn order_schema rhs_attr in
  Array.to_list sigma
  |> List.find (fun c -> String.equal (Cfd.name c) name && Cfd.rhs c = rhs)

let fresh values = Tuple.create ~tid:999 (Array.map Value.of_string values)

let test_expected_rhs_constant_clause () =
  let db, sigma = clean_db_and_sigma () in
  let idx = Lhs_index.build sigma db in
  (* phi2's constant row (10012 || NYC): a tuple with zip 10012 is expected
     to have CT = NYC, regardless of what the relation holds. *)
  let phi2_ct =
    Array.to_list sigma
    |> List.find (fun c ->
           String.equal (Cfd.name c) "phi2"
           && Cfd.rhs c = Schema.position_exn order_schema "CT"
           && Cfd.is_constant c
           && Pattern.matches (Value.int 10012) (Cfd.lhs_patterns c).(0))
  in
  let t =
    fresh [| "a1"; "X"; "1.0"; "212"; "1234567"; "Elm"; "PHI"; "PA"; "10012" |]
  in
  Alcotest.(check (option value)) "expected NYC" (Some (Value.string "NYC"))
    (Lhs_index.expected_rhs idx phi2_ct t);
  Alcotest.(check bool) "violates" true (Lhs_index.violates idx phi2_ct t)

let test_expected_rhs_variable_clause () =
  let db, sigma = clean_db_and_sigma () in
  let idx = Lhs_index.build sigma db in
  (* phi3's wildcard row: id a23 determines name "H. Porter" from the data. *)
  let phi3_name =
    Array.to_list sigma
    |> List.find (fun c ->
           String.equal (Cfd.name c) "phi3"
           && Cfd.rhs c = Schema.position_exn order_schema "name")
  in
  let t =
    fresh [| "a23"; "Wrong"; "17.99"; "999"; "0"; "Elm"; "LA"; "CA"; "90001" |]
  in
  Alcotest.(check (option value)) "indexed name"
    (Some (Value.string "H. Porter"))
    (Lhs_index.expected_rhs idx phi3_name t);
  Alcotest.(check bool) "conflicting name violates" true
    (Lhs_index.violates idx phi3_name t);
  (* unknown key: no constraint *)
  let unknown =
    fresh [| "zz"; "Wrong"; "1.0"; "999"; "0"; "Elm"; "LA"; "CA"; "90001" |]
  in
  Alcotest.(check (option value)) "unknown key free" None
    (Lhs_index.expected_rhs idx phi3_name unknown)

let test_vio_counts_clauses () =
  let db, sigma = clean_db_and_sigma () in
  let idx = Lhs_index.build sigma db in
  (* A tuple cloning t1 but claiming NYC/NY: conflicts with phi1 (STR via
     index? no - STR matches), CT, ST and phi4 (zip). *)
  let t =
    fresh
      [| "a23"; "H. Porter"; "17.99"; "215"; "8983490"; "Walnut"; "NYC"; "NY"; "19014" |]
  in
  Alcotest.(check bool) "some violations" true (Lhs_index.vio idx t > 0);
  let clean_clone =
    fresh
      [| "a23"; "H. Porter"; "17.99"; "215"; "8983490"; "Walnut"; "PHI"; "PA"; "19014" |]
  in
  Alcotest.(check int) "clone of clean tuple violates nothing" 0
    (Lhs_index.vio idx clean_clone)

let test_nulls_resolve () =
  let db, sigma = clean_db_and_sigma () in
  let idx = Lhs_index.build sigma db in
  let t =
    fresh [| "a23"; ""; ""; ""; ""; ""; ""; ""; "" |]
  in
  (* null RHS and null LHS both resolve: only id is set, and the phi3
     clauses see null names/prices, which violate nothing. *)
  Alcotest.(check int) "nulls violate nothing" 0 (Lhs_index.vio idx t)

let test_add_tuple_updates_index () =
  let db, sigma = clean_db_and_sigma () in
  let idx = Lhs_index.build sigma db in
  let phi3_name = find_clause sigma ~name:"phi3" ~rhs_attr:"name" in
  let newcomer =
    fresh [| "a99"; "Tea Pot"; "3.50"; "215"; "1111111"; "Oak"; "PHI"; "PA"; "19014" |]
  in
  Alcotest.(check (option value)) "a99 unknown before" None
    (Lhs_index.expected_rhs idx phi3_name newcomer);
  Lhs_index.add_tuple idx newcomer;
  let probe =
    fresh [| "a99"; "Other"; "9.99"; "1"; "2"; "3"; "4"; "5"; "6" |]
  in
  Alcotest.(check (option value)) "a99 bound after add"
    (Some (Value.string "Tea Pot"))
    (Lhs_index.expected_rhs idx phi3_name probe);
  Alcotest.(check bool) "conflict detected" true
    (Lhs_index.violates idx phi3_name probe)

(* The clauses [iter_violated] visits, by id, in visiting order. *)
let visited idx t =
  let ids = ref [] in
  Lhs_index.iter_violated idx t (fun cfd -> ids := Cfd.id cfd :: !ids);
  List.rev !ids

let test_iter_violated () =
  let db, sigma = clean_db_and_sigma () in
  let idx = Lhs_index.build sigma db in
  let t =
    fresh [| "a23"; "Wrong"; "99.99"; "215"; "8983490"; "Walnut"; "PHI"; "PA"; "19014" |]
  in
  let ids = visited idx t in
  Alcotest.(check bool) "phi3 violations found" true (List.length ids >= 2);
  Alcotest.(check bool) "all of them phi3's" true
    (List.for_all (fun cid -> String.equal (Cfd.name sigma.(cid)) "phi3") ids);
  Alcotest.(check (list int)) "each clause once" (List.sort_uniq Int.compare ids)
    (List.sort Int.compare ids);
  Alcotest.(check int) "vio counts the visits" (List.length ids)
    (Lhs_index.vio idx t)

(* ---- the index against an all-clause reference ------------------------ *)

(* The index as it was before tables were limited to wildcard-RHS
   clauses, kept as a test-only oracle: one table per clause of Σ, every
   clause visited per tuple, and [vio] checking every clause instead of
   probing anchors. *)
module Reference = struct
  type t = { sigma : Cfd.t array; tables : Value.t Vkey.Table.t array }

  let add_tuple idx t =
    Array.iteri
      (fun i cfd ->
        if (not (Cfd.is_constant cfd)) && Cfd.applies_lhs cfd t then begin
          let v = Tuple.get t (Cfd.rhs cfd) in
          let key = Cfd.lhs_key cfd t in
          if (not (Value.is_null v)) && not (Vkey.Table.mem idx.tables.(i) key)
          then Vkey.Table.add idx.tables.(i) key v
        end)
      idx.sigma

  let build sigma rel =
    let idx = { sigma; tables = Array.map (fun _ -> Vkey.Table.create 256) sigma } in
    Relation.iter (add_tuple idx) rel;
    idx

  let expected_rhs idx cfd t =
    if not (Cfd.applies_lhs cfd t) then None
    else
      match Cfd.rhs_pattern cfd with
      | Pattern.Const a -> Some a
      | Pattern.Wild ->
        Vkey.Table.find_opt idx.tables.(Cfd.id cfd) (Cfd.lhs_key cfd t)

  let violates idx cfd t =
    match expected_rhs idx cfd t with
    | None -> false
    | Some expected ->
      let v = Tuple.get t (Cfd.rhs cfd) in
      (not (Value.is_null v)) && not (Value.equal v expected)

  let violated idx t =
    List.filter (fun cfd -> violates idx cfd t) (Array.to_list idx.sigma)

  let vio idx t = List.length (violated idx t)
end

(* Rulesets mixing constant-RHS and wildcard-RHS clauses, and tuples with
   nulls and the look-alikes [Int 1], [Float 1.] and ["1"], which the
   index must keep apart; some pattern constants occur in no tuple. *)
module Index_gen = struct
  open QCheck.Gen

  let attrs = [ "A"; "B"; "C"; "D" ]

  let schema = Schema.make ~name:"r" attrs

  let value_gen =
    oneofl Value.[ Null; Int 1; Float 1.; String "1"; String "x"; Int 2 ]

  let pattern_gen =
    frequency
      [
        (3, return Pattern.Wild);
        ( 2,
          map Pattern.const
            (oneofl
               Value.[ Int 1; Float 1.; String "1"; String "x"; String "absent" ])
        );
      ]

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

  let row_gen = array_size (return 4) value_gen

  (* (relation rows, Σ, rows inserted one by one, probe rows) *)
  let instance =
    QCheck.make
      (quad (list_size (0 -- 20) row_gen)
         (map Cfd.number (list_size (1 -- 8) clause_gen))
         (list_size (0 -- 6) row_gen)
         (list_size (1 -- 8) row_gen))
end

let prop_index_oracle =
  QCheck.Test.make ~count:300
    ~name:"expected_rhs, violates, vio and visited clauses equal the all-clause index"
    Index_gen.instance (fun (rows, sigma, inserts, probes) ->
      let rel = Relation.create Index_gen.schema in
      List.iter (fun r -> ignore (Relation.insert rel r)) rows;
      let idx = Lhs_index.build sigma rel in
      let oracle = Reference.build sigma rel in
      let clauses = Array.to_list sigma in
      (* [iter_violated] visits exactly the violated clauses, each once:
         sorted, its visits are the reference's ids in Σ order. *)
      let agree t =
        List.for_all
          (fun cfd ->
            Option.equal Value.equal
              (Lhs_index.expected_rhs idx cfd t)
              (Reference.expected_rhs oracle cfd t)
            && Lhs_index.violates idx cfd t = Reference.violates oracle cfd t)
          clauses
        && Lhs_index.vio idx t = Reference.vio oracle t
        && List.sort Int.compare (visited idx t)
           = List.map Cfd.id (Reference.violated oracle t)
      in
      let probes = List.mapi (fun i r -> Tuple.create ~tid:(1000 + i) r) probes in
      let all_agree extra =
        List.for_all agree (extra @ probes @ Relation.to_list rel)
      in
      all_agree []
      && List.for_all
           (fun r ->
             let t = Relation.insert rel r in
             Lhs_index.add_tuple idx t;
             Reference.add_tuple oracle t;
             all_agree [ t ])
           inserts)

(* ---- the anchored clause index against brute force -------------------- *)

(* What [Anchor_index.iter] must visit for a tuple, written out: the
   clauses with no constant in their LHS pattern, in Σ order, then, by
   anchor position, the clauses whose anchor (first LHS constant) the
   tuple holds, later clauses of Σ first. *)
let anchor_of cfd =
  let pats = Cfd.lhs_patterns cfd in
  List.find_map
    (fun i ->
      match pats.(i) with
      | Pattern.Const c -> Some ((Cfd.lhs cfd).(i), c)
      | Pattern.Wild -> None)
    (List.init (Array.length pats) Fun.id)

let brute_force_visits clauses t =
  let plain = List.filter (fun cfd -> anchor_of cfd = None) clauses in
  let anchored_at p =
    List.rev
      (List.filter
         (fun cfd ->
           match anchor_of cfd with
           | Some (q, c) -> q = p && Value.equal (Tuple.get t p) c
           | None -> false)
         clauses)
  in
  plain @ List.concat_map anchored_at (List.init (Tuple.arity t) Fun.id)

let prop_anchor_index_brute_force =
  let open QCheck.Gen in
  (* Σ from the shared generator (string constants) or with look-alike
     and absent constants; tuples mix nulls, look-alikes, constants no
     clause holds and the shared generator's values. *)
  let sigma_gen =
    oneof
      [
        Helpers.Gen.sigma_gen;
        map Cfd.number (list_size (1 -- 8) Index_gen.clause_gen);
      ]
  in
  let value_gen =
    frequency
      [
        (3, Helpers.Gen.value_gen);
        ( 2,
          oneofl
            Value.
              [ Null; Int 1; Float 1.; String "1"; String "x"; String "absent" ]
        );
      ]
  in
  let row_gen = array_size (return 4) value_gen in
  QCheck.Test.make ~count:300
    ~name:"anchored index visits what brute force finds, once, in order"
    (QCheck.make (pair sigma_gen (list_size (1 -- 10) row_gen)))
    (fun (sigma, rows) ->
      let clauses = Array.to_list sigma in
      let idx = Anchor_index.build Fun.id clauses in
      let ids = List.map Cfd.id in
      List.for_all
        (fun values ->
          let t = Tuple.create ~tid:0 values in
          let visited = ref [] in
          Anchor_index.iter idx (Tuple.get t) (fun cfd ->
              visited := cfd :: !visited);
          let visited = List.rev !visited in
          ids visited = ids (brute_force_visits clauses t)
          && List.for_all
               (fun cfd ->
                 (not (Cfd.applies_lhs cfd t)) || List.memq cfd visited)
               clauses)
        rows
      && Anchor_index.positions idx
         = List.sort_uniq Int.compare
             (List.filter_map (fun c -> Option.map fst (anchor_of c)) clauses))

let suite =
  [
    Alcotest.test_case "constant clause lookup" `Quick test_expected_rhs_constant_clause;
    Alcotest.test_case "variable clause lookup" `Quick test_expected_rhs_variable_clause;
    Alcotest.test_case "vio counting" `Quick test_vio_counts_clauses;
    Alcotest.test_case "nulls resolve" `Quick test_nulls_resolve;
    Alcotest.test_case "add_tuple updates" `Quick test_add_tuple_updates_index;
    Alcotest.test_case "iter_violated visits each violated clause once" `Quick
      test_iter_violated;
    QCheck_alcotest.to_alcotest prop_index_oracle;
    QCheck_alcotest.to_alcotest prop_anchor_index_brute_force;
  ]
