(* Unit and property tests for Relalg.Value. *)

open Relalg

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) (int_range (-1000) 1000);
        map (fun f -> Value.Float f) (float_range (-1000.) 1000.);
        map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 8));
      ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let test_ordering_basics () =
  Alcotest.(check int) "null smallest" (-1) (compare (Value.compare Value.Null (Value.Int 0)) 0);
  Alcotest.(check bool) "int/float mixed eq" true (Value.equal (Value.Int 3) (Value.Float 3.));
  Alcotest.(check bool) "int < float" true (Value.compare (Value.Int 3) (Value.Float 3.5) < 0);
  Alcotest.(check bool) "str vs int" true (Value.compare (Value.Str "a") (Value.Int 9) > 0);
  (* Equal integral values hash equal at every magnitude, so hash and
     nested-loop joins match the same rows. *)
  List.iter
    (fun i ->
      let a = Value.Int i and b = Value.Float (float_of_int i) in
      Alcotest.(check bool) "large int = float" true (Value.equal a b);
      Alcotest.(check int) "large int/float hash" (Value.hash a) (Value.hash b))
    [ 1_000_000_000_000_000; (1 lsl 53) + 1; -(1 lsl 60) - 7; max_int ]

let test_arithmetic () =
  Alcotest.(check bool) "int add" true (Value.equal (Value.add (Value.Int 2) (Value.Int 3)) (Value.Int 5));
  Alcotest.(check bool) "mixed mul" true
    (Value.equal (Value.mul (Value.Int 2) (Value.Float 1.5)) (Value.Float 3.));
  Alcotest.(check bool) "null absorbs" true (Value.is_null (Value.add Value.Null (Value.Int 1)));
  Alcotest.(check bool) "div by zero is null" true
    (Value.is_null (Value.div (Value.Int 1) (Value.Int 0)));
  Alcotest.check_raises "bool arithmetic rejected"
    (Invalid_argument "Value.add: non-numeric operand") (fun () ->
      ignore (Value.add (Value.Bool true) (Value.Int 1)))

let prop_compare_reflexive =
  Helpers.qcheck_case "compare reflexive" value_arb (fun v -> Value.compare v v = 0)

let prop_compare_antisymmetric =
  Helpers.qcheck_case "compare antisymmetric"
    (QCheck.pair value_arb value_arb)
    (fun (a, b) -> Value.compare a b = -Value.compare b a)

let prop_compare_transitive =
  Helpers.qcheck_case "compare transitive"
    (QCheck.triple value_arb value_arb value_arb)
    (fun (a, b, c) ->
      let sorted = List.sort Value.compare [ a; b; c ] in
      match sorted with
      | [ x; y; z ] -> Value.compare x y <= 0 && Value.compare y z <= 0 && Value.compare x z <= 0
      | _ -> false)

let prop_hash_consistent =
  Helpers.qcheck_case "equal values hash equal"
    (QCheck.pair value_arb value_arb)
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

let prop_add_commutative =
  let num_gen =
    QCheck.Gen.(
      oneof
        [ map (fun i -> Value.Int i) (int_range (-1000) 1000);
          map (fun f -> Value.Float f) (float_range (-1000.) 1000.) ])
  in
  let num_arb = QCheck.make ~print:Value.to_string num_gen in
  Helpers.qcheck_case "numeric add commutative"
    (QCheck.pair num_arb num_arb)
    (fun (a, b) -> Value.equal (Value.add a b) (Value.add b a))

let suite =
  [
    Alcotest.test_case "ordering basics" `Quick test_ordering_basics;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    prop_compare_reflexive;
    prop_compare_antisymmetric;
    prop_compare_transitive;
    prop_hash_consistent;
    prop_add_commutative;
  ]
