open Dq_relation
open Dq_core
open Helpers

let test_dl_distance_basics () =
  Alcotest.(check int) "identical" 0 (Cost.dl_distance "kitten" "kitten");
  Alcotest.(check int) "empty vs word" 5 (Cost.dl_distance "" "hello");
  Alcotest.(check int) "substitutions" 3 (Cost.dl_distance "kitten" "sitting");
  Alcotest.(check int) "transposition is 1" 1 (Cost.dl_distance "ab" "ba");
  Alcotest.(check int) "ca -> abc (OSA)" 3 (Cost.dl_distance "ca" "abc");
  Alcotest.(check int) "single insert" 1 (Cost.dl_distance "NYC" "NYCC")

let test_bytes_not_chars () =
  Alcotest.(check int) "é against e" 2 (Cost.dl_distance "\xc3\xa9" "e")

let test_dl_symmetry_and_triangle_ish () =
  let words = [ "NYC"; "PHI"; "19014"; "10012"; ""; "Walnut"; "Wlanut" ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check int) "symmetric" (Cost.dl_distance a b)
            (Cost.dl_distance b a))
        words)
    words

let test_similarity_normalised () =
  Alcotest.(check (float 1e-9)) "identical" 0.
    (Cost.similarity (Value.string "abc") (Value.string "abc"));
  Alcotest.(check (float 1e-9)) "max when disjoint" 1.
    (Cost.similarity (Value.string "abc") (Value.string "xyz"));
  (* longer strings 1 char apart are closer than shorter ones (Sect. 3.2) *)
  let long =
    Cost.similarity (Value.string "Washington") (Value.string "Washingtan")
  in
  let short = Cost.similarity (Value.string "ab") (Value.string "ax") in
  Alcotest.(check bool) "long 1-off < short 1-off" true (long < short);
  Alcotest.(check (float 1e-9)) "both null" 0. (Cost.similarity Value.null Value.null);
  Alcotest.(check (float 1e-9)) "to null costs full" 1.
    (Cost.similarity (Value.string "abc") Value.null)

let test_example_3_1 () =
  (* Example 3.1: repairing t3 by (1) CT,ST := NYC,NY costs
     3/3*0.1 + 3/3*0.1 = 0.2; by (2) zip := 19014, AC := 215 costs
     1/3*0.9 + 2/5*0.8 = 0.6 (paper writes the terms in that order). *)
  let db = fig1_db () in
  let t3 = Relation.find_exn db 2 in
  let ct = Dq_relation.Schema.position_exn order_schema "CT" in
  let st = Dq_relation.Schema.position_exn order_schema "ST" in
  let zip = Dq_relation.Schema.position_exn order_schema "zip" in
  let ac = Dq_relation.Schema.position_exn order_schema "AC" in
  let option1 =
    Cost.change ~weight:(Tuple.weight t3 ct) (Tuple.get t3 ct) (Value.string "NYC")
    +. Cost.change ~weight:(Tuple.weight t3 st) (Tuple.get t3 st) (Value.string "NY")
  in
  Alcotest.(check (float 1e-6)) "option 1 costs 0.2" 0.2 option1;
  let option2 =
    Cost.change ~weight:(Tuple.weight t3 ac) (Tuple.get t3 ac) (Value.int 215)
    +. Cost.change ~weight:(Tuple.weight t3 zip) (Tuple.get t3 zip) (Value.int 19014)
  in
  (* 1/3 * 0.9 + 2/5 * 0.8 = 0.62; the paper rounds this to 0.6 *)
  Alcotest.(check (float 1e-6)) "option 2 costs 0.62" 0.62 option2;
  Alcotest.(check bool) "option 1 preferred" true (option1 < option2)

let test_tuple_change () =
  let db = fig1_db () in
  let t3 = Relation.find_exn db 2 in
  let t3' = Tuple.copy t3 in
  Alcotest.(check (float 1e-9)) "no change" 0. (Cost.tuple_change ~original:t3 ~repaired:t3');
  let ct = Dq_relation.Schema.position_exn order_schema "CT" in
  Tuple.set t3' ct (Value.string "NYC");
  Alcotest.(check (float 1e-6)) "one attr" 0.1
    (Cost.tuple_change ~original:t3 ~repaired:t3')

let test_repair_cost () =
  let db = fig1_db () in
  let db2 = Relation.copy db in
  Alcotest.(check (float 1e-9)) "identical relations" 0.
    (Cost.repair_cost ~original:db ~repair:db2);
  let t = Relation.find_exn db2 2 in
  Relation.set_value db2 t 6 (Value.string "NYC");
  Relation.set_value db2 t 7 (Value.string "NY");
  Alcotest.(check (float 1e-6)) "example 3.1 repair" 0.2
    (Cost.repair_cost ~original:db ~repair:db2)

let prop_dl_triangle =
  let word = QCheck.Gen.(string_size ~gen:(char_range 'a' 'e') (0 -- 8)) in
  QCheck.Test.make ~name:"DL distance satisfies triangle inequality" ~count:300
    (QCheck.make QCheck.Gen.(triple word word word))
    (fun (a, b, c) ->
      Cost.dl_distance a c <= Cost.dl_distance a b + Cost.dl_distance b c)

let prop_dl_bounds =
  let word = QCheck.Gen.(string_size ~gen:(char_range 'a' 'e') (0 -- 10)) in
  QCheck.Test.make ~name:"DL distance bounded by longer length" ~count:300
    (QCheck.make QCheck.Gen.(pair word word))
    (fun (a, b) ->
      let d = Cost.dl_distance a b in
      d >= abs (String.length a - String.length b)
      && d <= max (String.length a) (String.length b))

let prop_similarity_unit_interval =
  let word = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (0 -- 10)) in
  QCheck.Test.make ~name:"similarity in [0,1]" ~count:300
    (QCheck.make QCheck.Gen.(pair word word))
    (fun (a, b) ->
      let s = Cost.similarity (Value.string a) (Value.string b) in
      s >= 0. && s <= 1.)

(* ---- the bit-vector kernel against the dynamic program ---------------- *)

(* The OSA dynamic program [Cost.dl_distance] ran before the bit-vector
   kernel, kept as the reference. *)
let reference s t =
  let m = String.length s and n = String.length t in
  if m = 0 then n
  else if n = 0 then m
  else begin
    let prev2 = Array.make (n + 1) 0 in
    let prev = Array.init (n + 1) (fun j -> j) in
    let curr = Array.make (n + 1) 0 in
    for i = 1 to m do
      curr.(0) <- i;
      for j = 1 to n do
        let substitution_cost = if s.[i - 1] = t.[j - 1] then 0 else 1 in
        let best =
          min
            (min (prev.(j) + 1) (curr.(j - 1) + 1))
            (prev.(j - 1) + substitution_cost)
        in
        let best =
          if
            i > 1 && j > 1
            && s.[i - 1] = t.[j - 2]
            && s.[i - 2] = t.[j - 1]
          then min best (prev2.(j - 2) + 1)
          else best
        in
        curr.(j) <- best
      done;
      Array.blit prev 0 prev2 0 (n + 1);
      Array.blit curr 0 prev 0 (n + 1)
    done;
    prev.(n)
  end

(* Lengths weigh on 0-14 (every pattern fits a word) and 58-68 (around the
   62-byte limit, so either string may be the pattern, or neither); bytes
   come from a 2-4 letter alphabet, where transpositions are common, or
   from all 256 values. *)
let bytes_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun k -> char_range 'a' (Char.chr (Char.code 'a' + k - 1))) (2 -- 4);
      return (frequency [ (1, return '\000'); (1, return '\255'); (6, char) ]);
    ]

let text_gen chars =
  QCheck.Gen.(
    string_size ~gen:chars (frequency [ (4, 0 -- 14); (3, 58 -- 68); (1, 0 -- 130) ]))

let prop_kernel_equals_dp =
  QCheck.Test.make ~name:"DL kernel equals the dynamic program" ~count:3000
    (QCheck.make
       ~print:QCheck.Print.(pair string string)
       QCheck.Gen.(bytes_gen >>= fun chars -> pair (text_gen chars) (text_gen chars)))
    (fun (s, t) -> Cost.dl_distance s t = reference s t)

let prop_distances_equal_map =
  QCheck.Test.make ~name:"dl_distances equals mapping dl_distance" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair string (array string))
       QCheck.Gen.(
         bytes_gen >>= fun chars ->
         pair (text_gen chars)
           (array_size (0 -- 8)
              (frequency [ (1, return ""); (4, text_gen chars) ]))))
    (fun (p, ts) ->
      let ds = Cost.dl_distances p ts in
      ds = Array.map (Cost.dl_distance p) ts && ds = Array.map (reference p) ts)

(* Threads hammer the kernel and count answers that differ from the
   reference's, computed up front: 256 pairs, and for every 16th pair's
   first string its distances to all the second strings. *)
let stress_cases =
  lazy
    (let rand = Random.State.make [| 19 |] in
     let text () =
       String.init
         (Random.State.int rand 20)
         (fun _ -> Char.chr (Char.code 'a' + Random.State.int rand 3))
     in
     let pairs = Array.init 256 (fun _ -> (text (), text ())) in
     let texts = Array.map snd pairs in
     ( Array.map (fun (s, t) -> (s, t, reference s t)) pairs,
       texts,
       Array.map (fun (s, _) -> Array.map (reference s) texts) pairs ))

let count_wrong ~seconds () =
  let pairs, texts, rows = Lazy.force stress_cases in
  let wrong = ref 0 in
  let stop = Unix.gettimeofday () +. seconds in
  while Unix.gettimeofday () < stop do
    Array.iteri
      (fun i (s, t, d) ->
        if Cost.dl_distance s t <> d then incr wrong;
        if i land 15 = 0 && Cost.dl_distances s texts <> rows.(i) then
          incr wrong)
      pairs
  done;
  !wrong

let test_kernel_under_domains () =
  ignore (Lazy.force stress_cases);
  let ds = List.init 2 (fun _ -> Domain.spawn (count_wrong ~seconds:1.0)) in
  Alcotest.(check int) "wrong answers" 0
    (List.fold_left (fun n d -> n + Domain.join d) 0 ds)

let test_kernel_under_systhreads () =
  ignore (Lazy.force stress_cases);
  let wrong = Array.make 3 0 in
  let ts =
    List.init 3 (fun i ->
        Thread.create (fun () -> wrong.(i) <- count_wrong ~seconds:1.0 ()) ())
  in
  List.iter Thread.join ts;
  Alcotest.(check int) "wrong answers" 0 (Array.fold_left ( + ) 0 wrong)

let suite =
  [
    Alcotest.test_case "DL distance basics" `Quick test_dl_distance_basics;
    Alcotest.test_case "DL symmetry" `Quick test_dl_symmetry_and_triangle_ish;
    Alcotest.test_case "similarity normalisation" `Quick test_similarity_normalised;
    Alcotest.test_case "Example 3.1 costs" `Quick test_example_3_1;
    Alcotest.test_case "tuple change" `Quick test_tuple_change;
    Alcotest.test_case "repair cost" `Quick test_repair_cost;
    QCheck_alcotest.to_alcotest prop_dl_triangle;
    QCheck_alcotest.to_alcotest prop_dl_bounds;
    QCheck_alcotest.to_alcotest prop_similarity_unit_interval;
    QCheck_alcotest.to_alcotest prop_kernel_equals_dp;
    QCheck_alcotest.to_alcotest prop_distances_equal_map;
    Alcotest.test_case "kernel on two domains at once" `Quick
      test_kernel_under_domains;
    Alcotest.test_case "kernel on three systhreads at once" `Quick
      test_kernel_under_systhreads;
    Alcotest.test_case "distances count bytes" `Quick test_bytes_not_chars;
  ]
