open Dq_relation
open Dq_cfd
open Dq_core
open Dq_analysis
open Helpers
module Pool = Dq_parallel.Pool

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
  Alcotest.(check int)
    "partition covers sigma"
    (Array.length sigma)
    (Array.length a.Interaction.partition);
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

(* Partitioned repair must be byte-identical to the sequential repair —
   the whole point of the shard plan.  Checked on the Figure-1 workload
   at jobs 1 and 4, and on random instances below. *)
let repair_csv ?pool ?partition db sigma =
  let (repaired, stats), _report =
    ok2 (Batch_repair.repair ?pool ?partition db sigma)
  in
  (Csv.save_string repaired, stats)

let test_fig1_partition_identity () =
  let db = fig1_db () in
  let sigma = fig1_sigma () in
  let a = Interaction.analyze order_schema sigma in
  let seq, seq_stats = repair_csv db sigma in
  let part1, part_stats =
    repair_csv ~partition:a.Interaction.partition db sigma
  in
  Alcotest.(check string) "partitioned (jobs 1) byte-identical" seq part1;
  Pool.with_pool ~jobs:4 (fun pool ->
      let part4, _ =
        repair_csv ~pool ~partition:a.Interaction.partition db sigma
      in
      Alcotest.(check string) "partitioned (jobs 4) byte-identical" seq part4);
  Alcotest.(check int) "same cells changed" seq_stats.Batch_repair.cells_changed
    part_stats.Batch_repair.cells_changed;
  (* The re-resolution metric: each shard's instantiation rounds only
     visit its own columns' class roots, so the partitioned run does no
     more visiting than the full-width run. *)
  Alcotest.(check bool) "instantiate_visits no worse" true
    (part_stats.Batch_repair.instantiate_visits
    <= seq_stats.Batch_repair.instantiate_visits)

(* Helpers.Gen.sigma_gen's clauses nearly always connect into one shard,
   where partitioned repair falls back to the sequential one.  Half the
   instances here split Σ over the attribute halves {A, B} and {C, D}
   instead, so the shard path itself runs. *)
let split_sigma_gen =
  let open QCheck.Gen in
  let pattern =
    oneof [ return Pattern.Wild; map Pattern.const Helpers.Gen.value_gen ]
  in
  let clause half =
    let* perm = shuffle_l half in
    let* lhs_pat = pattern in
    let* rhs_pat = pattern in
    return
      (Cfd.make Helpers.Gen.schema
         ~lhs:[ (List.nth perm 0, lhs_pat) ]
         ~rhs:(List.nth perm 1, rhs_pat))
  in
  let* left = list_size (1 -- 3) (clause [ "A"; "B" ]) in
  let* right = list_size (1 -- 3) (clause [ "C"; "D" ]) in
  return (Cfd.number (left @ right))

let prop_partition_identity =
  QCheck.Test.make ~count:60
    ~name:"partitioned repair byte-identical to sequential (jobs 1 and 4)"
    (QCheck.make
       QCheck.Gen.(
         pair Helpers.Gen.relation_gen
           (oneof [ Helpers.Gen.sigma_gen; split_sigma_gen ])))
    (fun (db, sigma) ->
      QCheck.assume
        (Satisfiability.is_satisfiable (Relation.schema db) sigma);
      let a = Interaction.analyze (Relation.schema db) sigma in
      match Batch_repair.repair db sigma with
      | Error _ -> QCheck.assume_fail ()
      | Ok ((seq, seq_stats), _) ->
        let seq = Csv.save_string seq in
        let with_partition pool =
          match
            Batch_repair.repair ?pool ~partition:a.Interaction.partition db
              sigma
          with
          | Error e ->
            QCheck.Test.fail_reportf "partitioned repair failed: %s"
              (Dq_error.to_string e)
          | Ok ((rel, stats), _) -> (Csv.save_string rel, stats)
        in
        let part1, part_stats = with_partition None in
        let part4, _ =
          Pool.with_pool ~jobs:4 (fun pool -> with_partition (Some pool))
        in
        (* Each shard's instantiation rounds visit only its own columns'
           class roots, so partitioning never adds re-resolution work. *)
        seq = part1 && seq = part4
        && part_stats.Batch_repair.instantiate_visits
           <= seq_stats.Batch_repair.instantiate_visits)

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
    Alcotest.test_case "fig1 partition byte-identity" `Quick
      test_fig1_partition_identity;
    QCheck_alcotest.to_alcotest prop_partition_identity;
    QCheck_alcotest.to_alcotest prop_shards_disjoint;
  ]
