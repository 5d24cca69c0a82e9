(* Self-test of the benchmark's result oracle: it must reject a dropped
   row, a duplicate under DISTINCT and an unsorted result under ORDER BY,
   and accept (and report) the statement's columns in another order. *)

open Relalg
open Perfbench

let schema =
  [| Schema.attribute "t.a" Schema.TInt; Schema.attribute "t.b" Schema.TStr |]

let row a b = [| Value.Int a; Value.Str b |]

let naive_rows = [| row 3 "x"; row 1 "y"; row 2 "z"; row 1 "y" |]

let check ?(set_op = false) ~required ~ref_rows served_schema served_rows =
  let reference = Oracle.reference ~required schema ref_rows in
  Oracle.judge ~set_op ~reference (Oracle.observe ~required served_schema served_rows)

let accepted = function Oracle.Match _ -> true | Oracle.Mismatch _ -> false

let test_same () =
  Alcotest.(check bool)
    "the same multiset in another row order is accepted" true
    (check ~required:Phys_prop.any ~ref_rows:naive_rows schema
       [| row 1 "y"; row 2 "z"; row 1 "y"; row 3 "x" |]
    = Oracle.Match `Same)

let test_dropped_row () =
  Alcotest.(check bool)
    "a dropped row is rejected" false
    (accepted
       (check ~required:Phys_prop.any ~ref_rows:naive_rows schema
          [| row 1 "y"; row 2 "z"; row 3 "x" |]))

let test_duplicate_under_distinct () =
  let required = Phys_prop.with_distinct Phys_prop.any in
  Alcotest.(check bool)
    "the deduplicated result is accepted" true
    (accepted (check ~required ~ref_rows:naive_rows schema [| row 1 "y"; row 2 "z"; row 3 "x" |]));
  Alcotest.(check bool)
    "a duplicate under DISTINCT is rejected" false
    (accepted (check ~required ~ref_rows:naive_rows schema naive_rows))

let test_unsorted_under_order_by () =
  let required = Phys_prop.sorted [ ("t.a", Sort_order.Asc) ] in
  Alcotest.(check bool)
    "a sorted result is accepted" true
    (accepted
       (check ~required ~ref_rows:naive_rows schema
          [| row 1 "y"; row 1 "y"; row 2 "z"; row 3 "x" |]));
  Alcotest.(check bool)
    "an unsorted result under ORDER BY is rejected" false
    (accepted
       (check ~required ~ref_rows:naive_rows schema
          [| row 1 "y"; row 2 "z"; row 1 "y"; row 3 "x" |]))

let test_permuted_columns () =
  let swapped = [| schema.(1); schema.(0) |] in
  let swap r = [| r.(1); r.(0) |] in
  Alcotest.(check bool)
    "permuted columns are accepted and counted" true
    (check ~required:Phys_prop.any ~ref_rows:naive_rows swapped (Array.map swap naive_rows)
    = Oracle.Match `Reordered);
  Alcotest.(check bool)
    "a value moved to another column is rejected" false
    (accepted (check ~required:Phys_prop.any ~ref_rows:naive_rows swapped naive_rows))

let test_renamed_set_operand () =
  let other = [| Schema.attribute "u.a" Schema.TInt; Schema.attribute "u.b" Schema.TStr |] in
  Alcotest.(check bool)
    "a set operation named after its other operand is accepted and counted" true
    (check ~set_op:true ~required:Phys_prop.any ~ref_rows:naive_rows other naive_rows
    = Oracle.Match `Renamed);
  Alcotest.(check bool)
    "other column names outside a set operation are rejected" false
    (accepted (check ~required:Phys_prop.any ~ref_rows:naive_rows other naive_rows))

(* The reference evaluates an equivalent expression with the selections
   at the leaves; on tables small enough for the full cross product both
   must give the same multiset. *)
let test_push_down_equivalent () =
  let cat = Catalog.create () in
  List.iter
    (fun (name, rows) ->
      ignore
        (Catalog.add_synthetic cat ~name ~rows ~seed:7
           ~columns:
             [ ("id", Catalog.Serial); ("fk", Catalog.Uniform_int (0, 9)); ("v", Catalog.Uniform_int (0, 9)) ]
           ()))
    [ ("r", 12); ("s", 10); ("t", 8) ];
  List.iter
    (fun sql ->
      let st = Sqlfront.parse cat sql in
      let digest e =
        let rows, schema = Executor.naive cat e in
        Oracle.reference ~required:Phys_prop.any schema rows
      in
      let full = digest st.Sqlfront.logical in
      Alcotest.(check bool)
        sql true
        (Oracle.judge ~set_op:false ~reference:full (digest (Oracle.push_down st.Sqlfront.logical))
        = Oracle.Match `Same))
    [
      "SELECT * FROM r, s, t WHERE r.fk = s.id AND s.fk = t.id AND r.v < 5";
      "SELECT * FROM r, s, t WHERE r.fk = t.id AND t.v > 2 AND (r.v < 3 OR s.v < 3)";
      "SELECT r.v, COUNT(*) AS n FROM r, s WHERE r.fk = s.id GROUP BY r.v";
      "SELECT r.id FROM r, s WHERE r.fk = s.id INTERSECT SELECT t.id FROM t WHERE t.v < 7";
      "SELECT * FROM r, s WHERE r.v + s.v < 4";
    ]

let () =
  Alcotest.run "perfbench"
    [
      ( "oracle",
        [
          Alcotest.test_case "same multiset" `Quick test_same;
          Alcotest.test_case "dropped row" `Quick test_dropped_row;
          Alcotest.test_case "duplicate under DISTINCT" `Quick test_duplicate_under_distinct;
          Alcotest.test_case "unsorted under ORDER BY" `Quick test_unsorted_under_order_by;
          Alcotest.test_case "permuted columns" `Quick test_permuted_columns;
          Alcotest.test_case "renamed set operand" `Quick test_renamed_set_operand;
          Alcotest.test_case "push-down is equivalent" `Quick test_push_down_equivalent;
        ] );
    ]
