open Dq_cfd
open Dq_analysis
open Helpers

(* The Figure-1 workload: phi2 (zip → CT, ST) and phi4 (CT, STR → zip)
   close a dependency cycle; phi3 (id → name, PR) is attribute-disjoint
   from everything else. *)

let test_fig1_cycle () =
  let sigma = fig1_sigma () in
  let a = Interaction.analyze order_schema sigma in
  match a.Interaction.termination with
  | Interaction.Terminating -> Alcotest.fail "fig1 ruleset must be cyclic"
  | Interaction.May_oscillate cycles ->
    Alcotest.(check bool) "at least one certificate" true (cycles <> []);
    let witness =
      Interaction.cycle_to_string order_schema sigma (List.hd cycles)
    in
    let mentions s =
      let n = String.length witness and m = String.length s in
      let rec at i = i + m <= n && (String.sub witness i m = s || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool)
      (witness ^ " mentions zip") true (mentions "zip");
    Alcotest.(check bool) (witness ^ " mentions CT") true (mentions "CT")

let test_fig1_shards () =
  let sigma = fig1_sigma () in
  let a = Interaction.analyze order_schema sigma in
  Alcotest.(check bool)
    "at least two shards" true
    (List.length a.Interaction.shards >= 2);
  Array.iteri
    (fun cid _ ->
      Alcotest.(check int)
        (Printf.sprintf "clause %d is in exactly one shard" cid)
        1
        (List.length
           (List.filter
              (fun (s : Interaction.shard) -> List.mem cid s.Interaction.clauses)
              a.Interaction.shards)))
    sigma;
  (* Shards never share an attribute. *)
  let attr_sets =
    List.map (fun (s : Interaction.shard) -> s.Interaction.attrs)
      a.Interaction.shards
  in
  List.iteri
    (fun i s1 ->
      List.iteri
        (fun j s2 ->
          if i < j then
            Alcotest.(check bool)
              "shard attr sets disjoint" true
              (List.for_all (fun x -> not (List.mem x s2)) s1))
        attr_sets)
    attr_sets;
  (* The cyclic phi2/phi4 shard needs reconciliation; phi3's does not. *)
  let shard_of cid =
    List.find
      (fun (s : Interaction.shard) -> List.mem cid s.Interaction.clauses)
      a.Interaction.shards
  in
  let clause_named name =
    let found = ref (-1) in
    Array.iteri
      (fun i c -> if !found < 0 && Cfd.name c = name then found := i)
      sigma;
    !found
  in
  Alcotest.(check bool)
    "phi2's shard requires reconciliation" false
    (shard_of (clause_named "phi2")).Interaction.independent;
  Alcotest.(check bool)
    "phi3's shard is independent" true
    (shard_of (clause_named "phi3")).Interaction.independent

let test_fig1_oscillation () =
  let sigma = fig1_sigma () in
  let a = Interaction.analyze order_schema sigma in
  Alcotest.(check bool)
    "phi2/phi4 oscillation found" true
    (List.exists
       (fun (o : Interaction.oscillation) ->
         let na = Cfd.name sigma.(o.Interaction.a)
         and nb = Cfd.name sigma.(o.Interaction.b) in
         (na = "phi2" && nb = "phi4") || (na = "phi4" && nb = "phi2"))
       a.Interaction.oscillations)

let test_fig1_costs () =
  let db = fig1_db () in
  let sigma = fig1_sigma () in
  let a = Interaction.analyze ~data:db order_schema sigma in
  match a.Interaction.costs with
  | None -> Alcotest.fail "costs expected when data is supplied"
  | Some costs ->
    Alcotest.(check int) "one estimate per clause" (Array.length sigma)
      (List.length costs);
    List.iter
      (fun (c : Interaction.clause_cost) ->
        let in_unit x = x >= 0. && x <= 1. in
        Alcotest.(check bool) "selectivity in [0,1]" true
          (in_unit c.Interaction.selectivity);
        Alcotest.(check bool) "violation density in [0,1]" true
          (in_unit c.Interaction.violation_density);
        Alcotest.(check bool) "fanout >= 0" true (c.Interaction.fanout >= 0.))
      costs;
    (* fig1's dirty tuples t1/t2 violate phi2's (44) rows, so at least
       one clause must be flagged hot on this 4-tuple instance. *)
    Alcotest.(check bool) "a hot clause on the dirty instance" true
      (List.exists (fun (c : Interaction.clause_cost) -> c.Interaction.hot)
         costs)

let prop_shards_disjoint =
  QCheck.Test.make ~count:200 ~name:"shard attribute sets pairwise disjoint"
    (QCheck.make Helpers.Gen.sigma_gen)
    (fun sigma ->
      let a = Interaction.analyze Helpers.Gen.schema sigma in
      let sets =
        List.map (fun (s : Interaction.shard) -> s.Interaction.attrs)
          a.Interaction.shards
      in
      List.for_all
        (fun (i, s1) ->
          List.for_all
            (fun (j, s2) ->
              i >= j || List.for_all (fun x -> not (List.mem x s2)) s1)
            (List.mapi (fun j s -> (j, s)) sets))
        (List.mapi (fun i s -> (i, s)) sets))

let suite =
  [
    Alcotest.test_case "fig1 cycle certificate" `Quick test_fig1_cycle;
    Alcotest.test_case "fig1 shard plan" `Quick test_fig1_shards;
    Alcotest.test_case "fig1 oscillation pair" `Quick test_fig1_oscillation;
    Alcotest.test_case "fig1 cost estimates" `Quick test_fig1_costs;
    QCheck_alcotest.to_alcotest prop_shards_disjoint;
  ]
