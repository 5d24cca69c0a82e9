(* Unit and property tests for the scalar expression language. *)

open Relalg
open Expr

let schema : Schema.t =
  [|
    Schema.attribute "r.a" Schema.TInt;
    Schema.attribute "r.b" Schema.TInt;
    Schema.attribute "s.a" Schema.TInt;
  |]

let tuple a b c : Tuple.t = [| Value.Int a; Value.Int b; Value.Int c |]

let test_eval_comparisons () =
  let holds e t = Expr.eval_pred schema e t in
  Alcotest.(check bool) "eq true" true (holds (col "r.a" =% int 1) (tuple 1 2 3));
  Alcotest.(check bool) "eq false" false (holds (col "r.a" =% int 2) (tuple 1 2 3));
  Alcotest.(check bool) "lt" true (holds (col "r.a" <% col "r.b") (tuple 1 2 3));
  Alcotest.(check bool) "and short-circuit" false
    (holds (col "r.a" =% int 9 &&% (col "r.b" =% int 2)) (tuple 1 2 3));
  Alcotest.(check bool) "or" true
    (holds (col "r.a" =% int 9 ||% (col "r.b" =% int 2)) (tuple 1 2 3));
  Alcotest.(check bool) "not" true (holds (Not (col "r.a" =% int 9)) (tuple 1 2 3))

let test_null_semantics () =
  let t : Tuple.t = [| Value.Null; Value.Int 2; Value.Int 3 |] in
  Alcotest.(check bool) "null comparison filters out" false
    (Expr.eval_pred schema (col "r.a" =% int 1) t);
  Alcotest.(check bool) "null <> also false" false
    (Expr.eval_pred schema (Cmp (Ne, col "r.a", int 1)) t);
  (* NOT (null = 1) is null, not true. *)
  Alcotest.(check bool) "not of null is not true" false
    (Expr.eval_pred schema (Not (col "r.a" =% int 1)) t);
  (* A disjunction with a true arm survives a null arm. *)
  Alcotest.(check bool) "null or true" true
    (Expr.eval_pred schema (col "r.a" =% int 1 ||% (col "r.b" =% int 2)) t)

let test_arith_eval () =
  let f = Expr.compile schema (Arith (Add, col "r.a", Arith (Mul, col "r.b", int 10))) in
  Alcotest.(check bool) "1 + 2*10" true (Value.equal (f (tuple 1 2 3)) (Value.Int 21))

let test_columns () =
  let e = col "r.a" =% col "s.a" &&% (col "r.a" >% int 0) in
  Alcotest.(check (list string)) "columns dedup in order" [ "r.a"; "s.a" ] (Expr.columns e)

let test_conjuncts_roundtrip () =
  let e = col "r.a" =% int 1 &&% (col "r.b" =% int 2) &&% (col "s.a" =% int 3) in
  Alcotest.(check int) "three conjuncts" 3 (List.length (Expr.conjuncts e));
  Alcotest.(check int) "true_ has none" 0 (List.length (Expr.conjuncts true_));
  Alcotest.(check bool) "conjoin [] = true" true (Expr.equal (Expr.conjoin []) true_)

let test_conjoin_canonical () =
  let a = col "r.a" =% int 1 and b = col "r.b" =% int 2 in
  Alcotest.(check bool) "order-insensitive" true
    (Expr.equal (Expr.conjoin [ a; b ]) (Expr.conjoin [ b; a ]));
  Alcotest.(check bool) "duplicate-insensitive" true
    (Expr.equal (Expr.conjoin [ a; a; b ]) (Expr.conjoin [ a; b ]))

let test_equijoin_keys () =
  let left = Schema.project schema [ "r.a"; "r.b" ] in
  let right = Schema.project schema [ "s.a" ] in
  let keys = Expr.equijoin_keys (col "r.a" =% col "s.a") ~left ~right in
  Alcotest.(check (list (pair string string))) "keys" [ ("r.a", "s.a") ] keys;
  let flipped = Expr.equijoin_keys (col "s.a" =% col "r.b") ~left ~right in
  Alcotest.(check (list (pair string string))) "flipped sides" [ ("r.b", "s.a") ] flipped;
  let none = Expr.equijoin_keys (col "r.a" =% col "r.b") ~left ~right in
  Alcotest.(check int) "same-side equality is not a join key" 0 (List.length none);
  let range = Expr.equijoin_keys (col "r.a" <% col "s.a") ~left ~right in
  Alcotest.(check int) "inequality is not a key" 0 (List.length range)

let test_refers_only_to () =
  let left = Schema.project schema [ "r.a"; "r.b" ] in
  Alcotest.(check bool) "within" true (Expr.refers_only_to left (col "r.a" >% int 0));
  Alcotest.(check bool) "outside" false (Expr.refers_only_to left (col "s.a" >% int 0))

(* Random predicate generator over the fixed schema, for property tests. *)
let rec pred_gen depth =
  QCheck.Gen.(
    let atom =
      let* c = oneofl [ "r.a"; "r.b"; "s.a" ] in
      let* k = int_range (-5) 5 in
      let* op = oneofl [ Eq; Ne; Lt; Le; Gt; Ge ] in
      return (Cmp (op, Col c, Const (Value.Int k)))
    in
    if depth = 0 then atom
    else
      frequency
        [
          (3, atom);
          (1, map2 (fun a b -> And (a, b)) (pred_gen (depth - 1)) (pred_gen (depth - 1)));
          (1, map2 (fun a b -> Or (a, b)) (pred_gen (depth - 1)) (pred_gen (depth - 1)));
          (1, map (fun a -> Not a) (pred_gen (depth - 1)));
        ])

let pred_arb = QCheck.make ~print:Expr.to_string (pred_gen 3)

let tuple_gen =
  QCheck.Gen.(
    let* a = int_range (-5) 5 and* b = int_range (-5) 5 and* c = int_range (-5) 5 in
    return (tuple a b c))

let tuple_arb = QCheck.make ~print:(Format.asprintf "%a" Tuple.pp) tuple_gen

let prop_conjoin_preserves_semantics =
  Helpers.qcheck_case "conjoin(conjuncts e) == e under eval"
    (QCheck.pair pred_arb tuple_arb)
    (fun (e, t) ->
      let e' = Expr.conjoin (Expr.conjuncts e) in
      Expr.eval_pred schema e t = Expr.eval_pred schema e' t)

let prop_not_not =
  Helpers.qcheck_case "eval(not (not e)) == eval e"
    (QCheck.pair pred_arb tuple_arb)
    (fun (e, t) ->
      Expr.eval_pred schema (Not (Not e)) t = Expr.eval_pred schema e t)

let prop_and_commutative =
  Helpers.qcheck_case "AND commutative under eval"
    (QCheck.triple pred_arb pred_arb tuple_arb)
    (fun (a, b, t) ->
      Expr.eval_pred schema (And (a, b)) t = Expr.eval_pred schema (And (b, a)) t)

(* Typed tests against the three-valued evaluator. Rows pair a left
   row [l.a; l.b; l.n] with a right row [r.a; r.n]. The [*.a] and [l.b]
   cells take every kind of value; the [*.n] cells are numbers or NULL,
   so arithmetic, which rejects other operands, reads only them. *)
let left : Schema.t =
  [|
    Schema.attribute "l.a" Schema.TInt;
    Schema.attribute "l.b" Schema.TInt;
    Schema.attribute "l.n" Schema.TInt;
  |]

let right : Schema.t = [| Schema.attribute "r.a" Schema.TInt; Schema.attribute "r.n" Schema.TInt |]

let pair_schema = Schema.concat left right

(* Integers beyond 2^53 compare as the floats they round to; NaN,
   -0. and integral floats are where [Float.compare] differs from IEEE
   comparison or ties an integer. *)
let numbers =
  let big = 1 lsl 53 in
  List.map (fun i -> Value.Int i) [ 0; 1; -1; 2; big; big + 1; -big - 1; max_int; min_int ]
  @ List.map
      (fun f -> Value.Float f)
      [ Float.nan; -0.; 0.; 1.; -1.; 2.5; 9007199254740992.; Float.infinity; Float.neg_infinity ]

let any_values =
  (Value.Null :: Value.Bool true :: Value.Bool false :: numbers)
  @ List.map (fun s -> Value.Str s) [ ""; "a"; "b"; "ab" ]

let number_gen = QCheck.Gen.oneofl (Value.Null :: numbers)

let any_gen = QCheck.Gen.oneofl any_values

let typed_pred_gen =
  let open QCheck.Gen in
  let op = oneofl [ Eq; Ne; Lt; Le; Gt; Ge ] in
  let any_col = map (fun c -> Col c) (oneofl [ "l.a"; "l.b"; "l.n"; "r.a"; "r.n" ]) in
  let num_col = map (fun c -> Col c) (oneofl [ "l.n"; "r.n" ]) in
  let const = map (fun v -> Const v) any_gen in
  let num_operand = oneof [ num_col; map (fun v -> Const v) number_gen ] in
  let arith =
    map3
      (fun o a b -> Arith (o, a, b))
      (oneofl [ Add; Sub; Mul; Div ])
      num_operand num_operand
  in
  let cmp a b = map3 (fun o a b -> Cmp (o, a, b)) op a b in
  let atom =
    frequency
      [
        (4, cmp any_col const);
        (4, cmp const any_col);
        (3, cmp any_col any_col);
        (1, cmp const const);
        (2, cmp arith (oneof [ num_operand; arith ]));
        (1, cmp num_operand arith);
        (1, any_col);
        (1, const);
        (1, arith);
      ]
  in
  let rec pred depth =
    if depth = 0 then atom
    else
      frequency
        [
          (3, atom);
          (2, map2 (fun a b -> And (a, b)) (pred (depth - 1)) (pred (depth - 1)));
          (2, map2 (fun a b -> Or (a, b)) (pred (depth - 1)) (pred (depth - 1)));
          (2, map (fun a -> Not a) (pred (depth - 1)));
        ]
  in
  pred 3

let typed_case_arb =
  let open QCheck.Gen in
  let row_l = map3 (fun a b n -> [| a; b; n |]) any_gen any_gen number_gen in
  let row_r = map2 (fun a n -> [| a; n |]) any_gen number_gen in
  let print (e, l, r) =
    Format.asprintf "%s on %a | %a" (Expr.to_string e) Tuple.pp l Tuple.pp r
  in
  QCheck.make ~print (triple typed_pred_gen row_l row_r)

let prop_test_is_eval_pred =
  Helpers.qcheck_case ~count:3000 "test equals eval_pred" typed_case_arb (fun (e, l, r) ->
      let t = Tuple.concat l r in
      Expr.test pair_schema e t = Expr.eval_pred pair_schema e t)

let prop_test_pair_is_eval_pred =
  Helpers.qcheck_case ~count:3000 "test_pair equals eval_pred on the concatenation"
    typed_case_arb (fun (e, l, r) ->
      Expr.test_pair ~left ~right e l r = Expr.eval_pred pair_schema e (Tuple.concat l r))

(* The one place [test] and [eval_pred] part: a three-valued AND
   evaluates its right side when its left side is NULL, and [&&] does
   not. When that side raises (arithmetic on a string), [eval_pred]
   raises and [test] is false; when the left side is TRUE, both raise. *)
let test_null_and_raising_right () =
  let schema : Schema.t = [| Schema.attribute "t.n" Schema.TInt; Schema.attribute "t.s" Schema.TStr |] in
  let e = (col "t.n" =% int 1) &&% Cmp (Gt, Arith (Add, col "t.s", int 1), int 0) in
  let raises_invalid f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  let null_row : Tuple.t = [| Value.Null; Value.Str "x" |] in
  let one_row : Tuple.t = [| Value.Int 1; Value.Str "x" |] in
  Alcotest.(check bool) "eval_pred raises on NULL AND" true
    (raises_invalid (fun () -> Expr.eval_pred schema e null_row));
  Alcotest.(check bool) "test stops at the NULL" false (Expr.test schema e null_row);
  Alcotest.(check bool) "test_pair stops at the NULL" false
    (Expr.test_pair ~left:[| schema.(0) |] ~right:[| schema.(1) |] e [| Value.Null |]
       [| Value.Str "x" |]);
  Alcotest.(check bool) "eval_pred raises on TRUE AND" true
    (raises_invalid (fun () -> Expr.eval_pred schema e one_row));
  Alcotest.(check bool) "test raises on TRUE AND" true
    (raises_invalid (fun () -> Expr.test schema e one_row))

(* Rendering of every constructor, pinned to the strings the
   [Format]-based printer produced: operator names, EXPLAIN text and
   plan-cache fingerprints all depend on them. *)
let test_rendering () =
  let f x = Const (Value.Float x) in
  List.iter
    (fun (e, want) -> Alcotest.(check string) want want (Expr.to_string e))
    [
      (col "r.a" =% int 1, "r.a = 1");
      ( (col "r.a" <% col "r.b") &&% Not (col "s.a" >=% int (-3)),
        "(r.a < r.b) AND (NOT (s.a >= -3))" );
      ( col "r.a" =% int 9 ||% (col "r.b" <=% int 2 &&% (col "s.a" =% col "r.a")),
        "(r.a = 9 OR (r.b <= 2) AND (s.a = r.a))" );
      ( Cmp
          ( Ne,
            Arith (Add, col "r.a", Arith (Mul, col "r.b", int 10)),
            Arith (Div, col "s.a", Arith (Sub, int 4, int 2)) ),
        "(r.a + (r.b * 10)) <> (s.a / (4 - 2))" );
      (Cmp (Eq, col "t.s", Const (Value.Str "it's \"q\"\n")), "t.s = \"it's \\\"q\\\"\\n\"");
      ( Cmp (Gt, col "t.f", f 2.5e-7) &&% Cmp (Lt, col "t.f", f 1234567.0),
        "(t.f > 2.5e-07) AND (t.f < 1.23457e+06)" );
      ( Cmp (Eq, col "t.n", Const Value.Null)
        ||% Not (Cmp (Eq, col "t.b", Const (Value.Bool true))),
        "(t.n = NULL OR NOT (t.b = true))" );
      (Not (Not (col "t.b")), "NOT (NOT t.b)");
    ];
  List.iter
    (fun (o, want) -> Alcotest.(check string) want want (Sort_order.to_string o))
    [
      ([], "any");
      ([ ("r.a", Sort_order.Asc) ], "r.a");
      ( [ ("r.a", Sort_order.Desc); ("s.b", Sort_order.Asc); ("t.c", Sort_order.Desc) ],
        "r.a desc, s.b, t.c desc" );
    ]

let suite =
  [
    Alcotest.test_case "comparisons" `Quick test_eval_comparisons;
    Alcotest.test_case "null semantics" `Quick test_null_semantics;
    Alcotest.test_case "arithmetic eval" `Quick test_arith_eval;
    Alcotest.test_case "rendering" `Quick test_rendering;
    Alcotest.test_case "columns" `Quick test_columns;
    Alcotest.test_case "conjuncts roundtrip" `Quick test_conjuncts_roundtrip;
    Alcotest.test_case "conjoin canonical" `Quick test_conjoin_canonical;
    Alcotest.test_case "equijoin keys" `Quick test_equijoin_keys;
    Alcotest.test_case "refers_only_to" `Quick test_refers_only_to;
    prop_conjoin_preserves_semantics;
    prop_not_not;
    prop_and_commutative;
    prop_test_is_eval_pred;
    prop_test_pair_is_eval_pred;
    Alcotest.test_case "test stops at a NULL AND" `Quick test_null_and_raising_right;
  ]
