open Dq_relation
open Dq_cfd
open Helpers

let v = Value.of_string

let test_normalize_expands () =
  (* phi1 has 4 rows x 3 RHS attrs = 12 normal-form clauses. *)
  let clauses = Cfd.normalize order_schema phi1 in
  Alcotest.(check int) "12 clauses" 12 (List.length clauses);
  (* phi3 is a plain FD: 1 implicit row x 2 RHS = 2 clauses, all wild. *)
  let fd_clauses = Cfd.normalize order_schema phi3 in
  Alcotest.(check int) "2 clauses" 2 (List.length fd_clauses);
  Alcotest.(check bool) "all embedded FDs" true
    (List.for_all Cfd.is_embedded_fd fd_clauses)

let test_number_assigns_ids () =
  let sigma = fig1_sigma () in
  Array.iteri (fun i c -> Alcotest.(check int) "id = index" i (Cfd.id c)) sigma

let test_unknown_attribute () =
  Alcotest.check_raises "unknown attr"
    (Invalid_argument "Cfd: unknown attribute \"BOGUS\" in schema order")
    (fun () ->
      ignore
        (Cfd.normalize order_schema
           (Cfd.Tableau.fd ~name:"x" ~lhs:[ "BOGUS" ] ~rhs:[ "CT" ])))

let test_arity_mismatch_in_row () =
  let bad =
    Cfd.Tableau.
      {
        name = "bad";
        lhs_attrs = [ "AC" ];
        rhs_attrs = [ "CT" ];
        rows = [ { lhs = [ wild; wild ]; rhs = [ wild ] } ];
      }
  in
  Alcotest.check_raises "row arity"
    (Invalid_argument "Cfd.normalize: pattern row arity mismatch in bad")
    (fun () -> ignore (Cfd.normalize order_schema bad))

let test_duplicate_lhs_rejected () =
  Alcotest.check_raises "dup lhs" (Invalid_argument "Cfd: duplicate LHS attribute")
    (fun () ->
      ignore
        (Cfd.make order_schema ~name:"d"
           ~lhs:[ ("AC", wild); ("AC", wild) ]
           ~rhs:("CT", wild)))

let test_is_constant () =
  let c =
    Cfd.make order_schema ~name:"c"
      ~lhs:[ ("zip", const "10012") ]
      ~rhs:("CT", const "NYC")
  in
  let w =
    Cfd.make order_schema ~name:"w" ~lhs:[ ("zip", wild) ] ~rhs:("CT", wild)
  in
  Alcotest.(check bool) "constant" true (Cfd.is_constant c);
  Alcotest.(check bool) "variable" false (Cfd.is_constant w)

let test_embedded_fd () =
  let c =
    Cfd.make order_schema ~name:"c"
      ~lhs:[ ("zip", const "10012") ]
      ~rhs:("CT", const "NYC")
  in
  let fd = Cfd.embedded_fd c in
  Alcotest.(check bool) "wildcarded" true (Cfd.is_embedded_fd fd);
  Alcotest.(check bool) "same attrs" true (Cfd.same_embedded_fd c fd);
  let ct lhs = Cfd.make order_schema ~lhs ~rhs:("CT", wild) in
  Alcotest.(check bool) "LHS order is irrelevant" true
    (Cfd.same_embedded_fd
       (ct [ ("AC", wild); ("PN", const "1") ])
       (ct [ ("PN", wild); ("AC", wild) ]));
  Alcotest.(check bool) "LHS width matters" false
    (Cfd.same_embedded_fd (ct [ ("AC", wild); ("PN", wild) ]) (ct [ ("AC", wild) ]))

let test_embedded_fds_dedup () =
  let sigma = fig1_sigma () in
  let fds = Cfd.embedded_fds (Array.to_list sigma) in
  (* phi1 contributes 3 (STR,CT,ST), phi2 2 (CT,ST), phi3 2, phi4 1: 8 distinct. *)
  Alcotest.(check int) "8 distinct embedded FDs" 8 (List.length fds);
  Alcotest.(check bool) "all wild" true (List.for_all Cfd.is_embedded_fd fds);
  Alcotest.(check (list string)) "first-seen order"
    [ "STR"; "CT"; "ST"; "CT"; "ST"; "name"; "PR"; "zip" ]
    (List.map (fun fd -> Schema.attribute order_schema (Cfd.rhs fd)) fds)

let test_applies_and_keys () =
  let c =
    Cfd.make order_schema ~name:"c"
      ~lhs:[ ("AC", const "212"); ("PN", wild) ]
      ~rhs:("CT", const "NYC")
  in
  let db = fig1_db () in
  let t3 = Relation.find_exn db 2 in
  let t1 = Relation.find_exn db 0 in
  Alcotest.(check bool) "t3 has AC 212" true (Cfd.applies_lhs c t3);
  Alcotest.(check bool) "t1 has AC 215" false (Cfd.applies_lhs c t1);
  Alcotest.(check bool) "t3 CT is PHI, not NYC" false (Cfd.rhs_matches c t3);
  Alcotest.(check (array value)) "lhs key"
    [| v "212"; v "3345677" |]
    (Cfd.lhs_key c t3)

let test_null_lhs_never_applies () =
  let c =
    Cfd.make order_schema ~name:"c" ~lhs:[ ("AC", wild) ] ~rhs:("CT", wild)
  in
  let db = fig1_db () in
  let t = Relation.find_exn db 0 in
  Relation.set_value db t (Dq_relation.Schema.position_exn order_schema "AC") Value.null;
  Alcotest.(check bool) "null fails even wildcards" false (Cfd.applies_lhs c t)

let test_rhs_attr_in_lhs_allowed () =
  (* The paper's tp[A_L]/tp[A_R] case: A on both sides. *)
  let c =
    Cfd.make order_schema ~name:"c"
      ~lhs:[ ("CT", const "NYC") ]
      ~rhs:("CT", const "NYC")
  in
  Alcotest.(check int) "rhs pos" (Dq_relation.Schema.position_exn order_schema "CT") (Cfd.rhs c)

let suite =
  [
    Alcotest.test_case "normalize expands" `Quick test_normalize_expands;
    Alcotest.test_case "number assigns ids" `Quick test_number_assigns_ids;
    Alcotest.test_case "unknown attribute" `Quick test_unknown_attribute;
    Alcotest.test_case "row arity mismatch" `Quick test_arity_mismatch_in_row;
    Alcotest.test_case "duplicate LHS" `Quick test_duplicate_lhs_rejected;
    Alcotest.test_case "is_constant" `Quick test_is_constant;
    Alcotest.test_case "embedded FD" `Quick test_embedded_fd;
    Alcotest.test_case "embedded FDs dedup" `Quick test_embedded_fds_dedup;
    Alcotest.test_case "applies/keys" `Quick test_applies_and_keys;
    Alcotest.test_case "null LHS never applies" `Quick test_null_lhs_never_applies;
    Alcotest.test_case "RHS attr may appear in LHS" `Quick test_rhs_attr_in_lhs_allowed;
  ]
