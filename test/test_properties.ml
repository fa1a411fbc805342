(* Property-based tests of the end-to-end repair guarantees on random
   instances: random small relations, random CFD sets (random FDs plus
   random constant rows).  Theorem 4.2 / 5.3: the algorithms terminate and
   produce consistent instances, never inventing or dropping tuples. *)

open Dq_relation
open Dq_cfd
open Dq_core

(* Generators live in {!Helpers.Gen}, shared with the parallel suite. *)
open Helpers.Gen

let satisfiable sigma = Satisfiability.is_satisfiable schema sigma

let same_tids r1 r2 =
  Relation.cardinality r1 = Relation.cardinality r2
  && Relation.fold (fun ok t -> ok && Relation.mem r2 (Tuple.tid t)) true r1

let prop_batch_repair_satisfies =
  QCheck.Test.make ~name:"BATCHREPAIR yields a consistent instance" ~count:150
    instance
    (fun (rel, sigma) ->
      QCheck.assume (satisfiable sigma);
      let repair, _ = Helpers.ok (Batch_repair.repair rel sigma) in
      Violation.satisfies repair sigma)

let prop_batch_repair_preserves_tuples =
  QCheck.Test.make ~name:"BATCHREPAIR preserves the tuple set" ~count:100
    instance
    (fun (rel, sigma) ->
      QCheck.assume (satisfiable sigma);
      let repair, _ = Helpers.ok (Batch_repair.repair rel sigma) in
      same_tids rel repair)

let prop_batch_repair_clean_fixpoint =
  QCheck.Test.make ~name:"BATCHREPAIR is a no-op on consistent data" ~count:100
    instance
    (fun (rel, sigma) ->
      QCheck.assume (satisfiable sigma);
      let first, _ = Helpers.ok (Batch_repair.repair rel sigma) in
      let second, stats = Helpers.ok (Batch_repair.repair first sigma) in
      stats.Batch_repair.cells_changed = 0 && Relation.dif first second = 0)

let prop_batch_stats_consistent =
  QCheck.Test.make ~name:"cells_changed agrees with dif" ~count:100 instance
    (fun (rel, sigma) ->
      QCheck.assume (satisfiable sigma);
      let repair, stats = Helpers.ok (Batch_repair.repair rel sigma) in
      stats.Batch_repair.cells_changed = Relation.dif rel repair)

let prop_increpair_satisfies =
  QCheck.Test.make ~name:"INCREPAIR (section 5.3) yields a consistent instance"
    ~count:150 instance
    (fun (rel, sigma) ->
      QCheck.assume (satisfiable sigma);
      let repair, _ = Helpers.ok (Inc_repair.repair_dirty rel sigma) in
      Violation.satisfies repair sigma && same_tids rel repair)

let prop_increpair_orderings_agree_on_consistency =
  QCheck.Test.make ~name:"all INCREPAIR orderings yield consistent instances"
    ~count:60 instance
    (fun (rel, sigma) ->
      QCheck.assume (satisfiable sigma);
      List.for_all
        (fun ordering ->
          let repair, _ = Helpers.ok (Inc_repair.repair_dirty ~ordering rel sigma) in
          Violation.satisfies repair sigma)
        [ Inc_repair.Linear; Inc_repair.By_violations; Inc_repair.By_weight ])

let prop_insertions_never_touch_base =
  QCheck.Test.make ~name:"INCREPAIR insertions never modify the clean base"
    ~count:80
    (QCheck.make QCheck.Gen.(triple instance_gen tuple_gen tuple_gen))
    (fun ((rel, sigma), v1, v2) ->
      QCheck.assume (satisfiable sigma);
      let base, _ = Helpers.ok (Batch_repair.repair rel sigma) in
      let delta =
        [ Tuple.create ~tid:9_000 v1; Tuple.create ~tid:9_001 v2 ]
      in
      let repair, _ = Helpers.ok (Inc_repair.repair_inserts base delta sigma) in
      Violation.satisfies repair sigma
      && Relation.fold
           (fun ok t ->
             ok && Tuple.equal_values t (Relation.find_exn repair (Tuple.tid t)))
           true base)

let prop_violation_detection_agrees_with_repair =
  QCheck.Test.make
    ~name:"satisfies(D) iff repairing changes nothing is needed" ~count:100
    instance
    (fun (rel, sigma) ->
      QCheck.assume (satisfiable sigma);
      let clean = Violation.satisfies rel sigma in
      if clean then
        let _, stats = Helpers.ok (Batch_repair.repair rel sigma) in
        stats.Batch_repair.cells_changed = 0
      else true)

(* The incremental dirty propagation is meant to queue every live
   violation, so the check at quiescence — the backstop for Theorem 4.2 —
   should never find one. *)
let prop_batch_repair_no_rescan =
  QCheck.Test.make ~name:"BATCHREPAIR never needs a quiescence rescan"
    ~count:150 instance
    (fun (rel, sigma) ->
      QCheck.assume (satisfiable sigma);
      Helpers.rescans_during (fun () -> Helpers.ok (Batch_repair.repair rel sigma)) = 0)

let test_fixtures_no_rescan () =
  List.iter
    (fun name ->
      let path ext = Printf.sprintf "../data/engine_fixtures/%s.%s" name ext in
      let rel = Csv.load_file (path "csv") in
      let sigma =
        match Cfd_parser.parse_file (path "cfd") with
        | Ok tableaux -> Cfd_parser.resolve (Relation.schema rel) tableaux
        | Error _ -> Alcotest.failf "%s: ruleset does not parse" name
      in
      Alcotest.(check int)
        (name ^ ": no rescan")
        0
        (Helpers.rescans_during (fun () -> Helpers.ok (Batch_repair.repair rel sigma))))
    [ "fd_only"; "constant"; "mixed" ]

let suite =
  Alcotest.test_case "engine fixtures need no quiescence rescan" `Quick
    test_fixtures_no_rescan
  :: List.map QCheck_alcotest.to_alcotest
    [
      prop_batch_repair_satisfies;
      prop_batch_repair_no_rescan;
      prop_batch_repair_preserves_tuples;
      prop_batch_repair_clean_fixpoint;
      prop_batch_stats_consistent;
      prop_increpair_satisfies;
      prop_increpair_orderings_agree_on_consistency;
      prop_insertions_never_touch_base;
      prop_violation_detection_agrees_with_repair;
    ]
