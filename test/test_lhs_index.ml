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

let test_vio_subset () =
  let db, sigma = clean_db_and_sigma () in
  let idx = Lhs_index.build sigma db in
  let t =
    fresh [| "a23"; "Wrong"; "99.99"; "215"; "8983490"; "Walnut"; "PHI"; "PA"; "19014" |]
  in
  let phi3_clauses =
    Array.to_list sigma |> List.filter (fun c -> String.equal (Cfd.name c) "phi3")
  in
  let sub = Lhs_index.vio_subset idx phi3_clauses t in
  Alcotest.(check bool) "phi3 violations found" true (sub >= 2);
  Alcotest.(check int) "subset of total" (Lhs_index.vio idx t) sub

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

  let vio_subset idx clauses t =
    List.length (List.filter (fun cfd -> violates idx cfd t) clauses)

  let vio idx t = vio_subset idx (Array.to_list idx.sigma) t
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
    ~name:"expected_rhs, violates, vio and vio_subset equal the all-clause index"
    Index_gen.instance (fun (rows, sigma, inserts, probes) ->
      let rel = Relation.create Index_gen.schema in
      List.iter (fun r -> ignore (Relation.insert rel r)) rows;
      let idx = Lhs_index.build sigma rel in
      let oracle = Reference.build sigma rel in
      let clauses = Array.to_list sigma in
      let wild = List.filter (fun c -> not (Cfd.is_constant c)) clauses in
      let odd = List.filteri (fun i _ -> i mod 2 = 1) clauses in
      let agree t =
        List.for_all
          (fun cfd ->
            Option.equal Value.equal
              (Lhs_index.expected_rhs idx cfd t)
              (Reference.expected_rhs oracle cfd t)
            && Lhs_index.violates idx cfd t = Reference.violates oracle cfd t)
          clauses
        && Lhs_index.vio idx t = Reference.vio oracle t
        && List.for_all
             (fun sub ->
               Lhs_index.vio_subset idx sub t = Reference.vio_subset oracle sub t)
             [ clauses; wild; odd ]
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

let suite =
  [
    Alcotest.test_case "constant clause lookup" `Quick test_expected_rhs_constant_clause;
    Alcotest.test_case "variable clause lookup" `Quick test_expected_rhs_variable_clause;
    Alcotest.test_case "vio counting" `Quick test_vio_counts_clauses;
    Alcotest.test_case "nulls resolve" `Quick test_nulls_resolve;
    Alcotest.test_case "add_tuple updates" `Quick test_add_tuple_updates_index;
    Alcotest.test_case "vio_subset" `Quick test_vio_subset;
    QCheck_alcotest.to_alcotest prop_index_oracle;
  ]
