open Dq_relation
open Helpers

let test_of_string_typing () =
  Alcotest.check value "empty is null" Value.null (Value.of_string "");
  Alcotest.check value "int" (Value.int 42) (Value.of_string "42");
  Alcotest.check value "negative int" (Value.int (-7)) (Value.of_string "-7");
  Alcotest.check value "float" (Value.float 17.99) (Value.of_string "17.99");
  Alcotest.check value "string" (Value.string "NYC") (Value.of_string "NYC");
  Alcotest.check value "mixed stays string" (Value.string "a23") (Value.of_string "a23")

let test_to_string_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string)
        (Printf.sprintf "roundtrip %S" s)
        s
        (Value.to_string (Value.of_string s)))
    [ ""; "42"; "NYC"; "a23"; "8983490"; "-3"; "Hello World" ]

let test_equality () =
  Alcotest.(check bool) "null = null" true (Value.equal Value.null Value.null);
  Alcotest.(check bool) "null <> 0" false (Value.equal Value.null (Value.int 0));
  Alcotest.(check bool) "int 1 <> float 1" false
    (Value.equal (Value.int 1) (Value.float 1.));
  Alcotest.(check bool) "string equal" true
    (Value.equal (Value.string "x") (Value.string "x"))

let test_null_eq_semantics () =
  (* Section 3.1 remark 1: t1[X] = t2[X] is true if either side is null. *)
  Alcotest.(check bool) "null ~ anything" true
    (Value.equal_null_eq Value.null (Value.string "x"));
  Alcotest.(check bool) "anything ~ null" true
    (Value.equal_null_eq (Value.int 5) Value.null);
  Alcotest.(check bool) "distinct constants differ" false
    (Value.equal_null_eq (Value.int 5) (Value.int 6))

let test_compare_total_order () =
  let vs =
    [ Value.null; Value.int 1; Value.int 2; Value.float 0.5; Value.string "a" ]
  in
  (* antisymmetry and nulls-first *)
  List.iter
    (fun v ->
      List.iter
        (fun w ->
          Alcotest.(check int)
            "compare antisymmetric"
            (compare (Value.compare v w) 0)
            (compare 0 (Value.compare w v)))
        vs)
    vs;
  Alcotest.(check bool) "null smallest" true
    (List.for_all
       (fun v -> Value.is_null v || Value.compare Value.null v < 0)
       vs)

let test_hash_consistent_with_equal () =
  let pairs = [ (Value.int 3, Value.of_string "3"); (Value.string "x", Value.string "x") ] in
  List.iter
    (fun (a, b) ->
      if Value.equal a b then
        Alcotest.(check int) "equal values hash equal" (Value.hash a) (Value.hash b))
    pairs

let test_display () =
  Alcotest.(check string) "null displays as bottom" "\xe2\x8a\xa5"
    (Value.to_display Value.null);
  Alcotest.(check string) "const displays plainly" "NYC"
    (Value.to_display (Value.string "NYC"))

(* ---- of_string against the general reading -------------------------- *)

(* [Value.of_string] as it was before its fast paths, kept as a test-only
   oracle: every cell tries [int_of_string], then [float_of_string]. *)
module Reference = struct
  let of_string s =
    if String.equal s "" then Value.Null
    else
      match int_of_string_opt s with
      | Some i -> Value.Int i
      | None -> (
        match float_of_string_opt s with
        | Some f -> Value.Float f
        | None -> Value.String s)
end

(* Strict equality with floats compared by their bits. *)
let same_value a b =
  match a, b with
  | Value.Float f, Value.Float g ->
    Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
  | _ -> Value.equal a b

let agrees s = same_value (Value.of_string s) (Reference.of_string s)

let prop_digit_strings =
  (* Signed digit strings of 1-22 digits, with and without a '.', which
     cross the 18-digit fast path and max_int's 19 digits. *)
  let gen =
    QCheck.Gen.(
      let digits k = string_size ~gen:(char_range '0' '9') (return k) in
      let* sign = oneofl [ ""; "-"; "+" ] in
      let* total = 1 -- 22 in
      let* whole = 0 -- total in
      let* dot = bool in
      let* a = digits whole in
      let* b = digits (total - whole) in
      return (sign ^ a ^ (if dot then "." else "") ^ b))
  in
  QCheck.Test.make ~name:"of_string reads digit strings as the reference"
    ~count:3000 (QCheck.make ~print:(Printf.sprintf "%S") gen) agrees

let test_edge_strings () =
  (* max_int, min_int and their neighbours, then every byte that can
     start a number and shapes either parser takes or refuses: C
     whitespace, '_', base prefixes, signs, bare points, exponents, inf
     and nan in any case, trailing junk. *)
  List.iter
    (fun s ->
      if not (agrees s) then Alcotest.failf "of_string %S differs from the reference" s)
    [
      "4611686018427387903"; "4611686018427387904"; "4611686018427387905";
      "4611686018427387902"; "-4611686018427387904"; "-4611686018427387905";
      "-4611686018427387903"; "4611686018427387903.0"; "-4611686018427387905.5";
      "999999999999999999"; "-999999999999999999"; "1000000000000000000";
      "-1000000000000000000"; "000000000000000000001"; "0000000000000000000";
      " 5"; "\t5"; "\n5"; "\0115"; "\0125"; "\r5"; " "; "_5"; "__"; "1_000";
      "1_000.5"; "0x1F"; "0X1f"; "0b101"; "0o17"; "0u5"; "0x1p3"; " 0x1p3";
      "+5"; "-0"; "-"; "+"; "."; ".."; "5."; ".5"; "-.5"; "-0.0"; "1e5";
      "1E5"; "1.5e"; "1.5.5"; "inf"; "-inf"; "+inf"; "Infinity"; "nan";
      "NaN"; "-nan"; "nan(1)"; "N_a_N"; "i_n_f"; "nano"; "12 "; "12\n";
      "007"; "-007"; "0"; "9"; "-9"; "a23"; "NYC";
    ]

let prop_skewed_strings =
  (* Short strings over the bytes that steer either parser: digits, signs,
     '.', '_', exponents, hex and binary prefixes, inf and nan, and C
     whitespace, with arbitrary bytes mixed in. *)
  let byte =
    QCheck.Gen.(
      frequency
        [
          ( 6,
            oneofl
              (List.of_seq
                 (String.to_seq
                    "0123456789+-._eExXbBoOiInNfaAy ,\"\n\r\t\011\012\000")) );
          (1, char_range '\000' '\255');
        ])
  in
  QCheck.Test.make ~name:"of_string reads skewed strings as the reference"
    ~count:5000
    (QCheck.make ~print:(Printf.sprintf "%S") QCheck.Gen.(string_size ~gen:byte (0 -- 10)))
    agrees

let suite =
  [
    Alcotest.test_case "of_string typing" `Quick test_of_string_typing;
    Alcotest.test_case "to_string roundtrip" `Quick test_to_string_roundtrip;
    Alcotest.test_case "strict equality" `Quick test_equality;
    Alcotest.test_case "SQL null semantics" `Quick test_null_eq_semantics;
    Alcotest.test_case "total order" `Quick test_compare_total_order;
    Alcotest.test_case "hash/equal consistency" `Quick test_hash_consistent_with_equal;
    Alcotest.test_case "display" `Quick test_display;
    QCheck_alcotest.to_alcotest prop_digit_strings;
    Alcotest.test_case "of_string on int bounds and look-alikes" `Quick
      test_edge_strings;
    QCheck_alcotest.to_alcotest prop_skewed_strings;
  ]
