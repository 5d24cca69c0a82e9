(* Tests of the SQL front end: parsing, translation, error reporting,
   and SQL-to-result integration through the optimizer and executor. *)

open Relalg

let catalog = Helpers.small_catalog ()

let parse sql = Sqlfront.parse catalog sql

let test_simple_select () =
  let stmt = parse "SELECT * FROM r" in
  (match stmt.logical.Logical.op with
   | Logical.Get "r" -> ()
   | _ -> Alcotest.fail "expected a bare get");
  Alcotest.(check bool) "no requirements" true (Phys_prop.equal stmt.required Phys_prop.any)

let test_where_becomes_select () =
  let stmt = parse "SELECT * FROM r WHERE r.a > 5 AND r.b = 2" in
  match stmt.logical.Logical.op with
  | Logical.Select p -> Alcotest.(check int) "two conjuncts" 2 (List.length (Expr.conjuncts p))
  | _ -> Alcotest.fail "expected a selection"

let test_join_spine () =
  let stmt = parse "SELECT * FROM r, s, t WHERE r.a = s.a AND s.c = t.c" in
  let rels = Logical.relations stmt.logical in
  Alcotest.(check (list string)) "all tables" [ "r"; "s"; "t" ] rels

let test_unqualified_resolution () =
  let stmt = parse "SELECT * FROM r, s WHERE b = 3" in
  match stmt.logical.Logical.op with
  | Logical.Select p ->
    Alcotest.(check (list string)) "resolved to r.b" [ "r.b" ] (Expr.columns p)
  | _ -> Alcotest.fail "expected a selection"

let test_order_by_and_distinct () =
  let stmt = parse "SELECT DISTINCT r.a FROM r ORDER BY r.a DESC" in
  Alcotest.(check bool) "distinct" true stmt.required.Phys_prop.distinct;
  Alcotest.(check bool) "desc order" true
    (Sort_order.equal stmt.required.Phys_prop.order [ ("r.a", Sort_order.Desc) ])

let test_projection_list () =
  let stmt = parse "SELECT r.a, r.b FROM r" in
  match stmt.logical.Logical.op with
  | Logical.Project cols -> Alcotest.(check (list string)) "columns" [ "r.a"; "r.b" ] cols
  | _ -> Alcotest.fail "expected a projection"

let test_aggregates () =
  let stmt = parse "SELECT r.a, COUNT(*) AS n, SUM(r.b) FROM r GROUP BY r.a" in
  match stmt.logical.Logical.op with
  | Logical.Project cols ->
    Alcotest.(check (list string)) "projection includes aliases" [ "r.a"; "n"; "sum_b" ] cols;
    (match (List.hd stmt.logical.Logical.inputs).Logical.op with
     | Logical.Group_by (keys, aggs) ->
       Alcotest.(check (list string)) "keys" [ "r.a" ] keys;
       Alcotest.(check int) "two aggregates" 2 (List.length aggs)
     | _ -> Alcotest.fail "expected group_by under projection")
  | _ -> Alcotest.fail "expected a projection"

let test_union () =
  let stmt = parse "SELECT r.a FROM r UNION SELECT s.a FROM s" in
  match stmt.logical.Logical.op with
  | Logical.Union -> ()
  | _ -> Alcotest.fail "expected a union"

let test_parse_errors () =
  let expect_error sql =
    match parse sql with
    | exception Sqlfront.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ sql)
  in
  expect_error "SELECT";
  expect_error "SELECT * FROM";
  expect_error "SELECT * FROM nope";
  expect_error "SELECT * FROM r WHERE";
  expect_error "SELECT * FROM r WHERE r.zzz = 1";
  expect_error "SELECT r.a, * FROM r";
  (* unqualified "id" is ambiguous between r.id and s.id *)
  expect_error "SELECT id FROM r, s WHERE true";
  expect_error "SELECT r.a FROM r GROUP BY r.b";
  expect_error "SELECT * FROM r trailing"

let test_sql_to_rows () =
  (* Full pipeline: SQL -> logical -> optimize -> execute vs naive. *)
  let run sql =
    let stmt = parse sql in
    let result =
      Relmodel.Optimizer.optimize (Relmodel.Optimizer.request catalog) stmt.logical
        ~required:stmt.required
    in
    match result.plan with
    | None -> Alcotest.fail "no plan"
    | Some p ->
      let rows, schema, _ = Executor.run catalog (Relmodel.Optimizer.to_physical p) in
      (rows, schema, stmt)
  in
  let rows, schema, stmt =
    run "SELECT r.id, s.id FROM r, s WHERE r.a = s.a AND r.b <= 2 ORDER BY r.id"
  in
  let expected, _ = Executor.naive catalog stmt.logical in
  Helpers.check_same_bag "sql result = naive" expected rows;
  Alcotest.(check bool) "ordered by r.id" true
    (Sort_order.is_sorted schema (Sort_order.asc [ "r.id" ]) rows);
  let agg_rows, _, _ = run "SELECT r.a, COUNT(*) AS n FROM r GROUP BY r.a" in
  let total =
    Array.fold_left
      (fun acc t -> match t.(1) with Value.Int n -> acc + n | _ -> acc)
      0 agg_rows
  in
  Alcotest.(check int) "counts add up to table size" 60 total

let test_literals_and_operators () =
  let stmt = parse "SELECT * FROM r WHERE r.a >= 1 AND r.a <> 3 OR NOT r.b < 2" in
  match stmt.logical.Logical.op with
  | Logical.Select _ -> ()
  | _ -> Alcotest.fail "expected a selection"

(* ---------- the statement memo ---------- *)

(* Every statement this suite parses successfully. *)
let suite_statements =
  [
    "SELECT * FROM r";
    "SELECT * FROM r WHERE r.a > 5 AND r.b = 2";
    "SELECT * FROM r, s, t WHERE r.a = s.a AND s.c = t.c";
    "SELECT * FROM r, s WHERE b = 3";
    "SELECT DISTINCT r.a FROM r ORDER BY r.a DESC";
    "SELECT r.a, r.b FROM r";
    "SELECT r.a, COUNT(*) AS n, SUM(r.b) FROM r GROUP BY r.a";
    "SELECT r.a FROM r UNION SELECT s.a FROM s";
    "SELECT r.id, s.id FROM r, s WHERE r.a = s.a AND r.b <= 2 ORDER BY r.id";
    "SELECT r.a, COUNT(*) AS n FROM r GROUP BY r.a";
    "SELECT * FROM r WHERE r.a >= 1 AND r.a <> 3 OR NOT r.b < 2";
  ]

(* From its third parse on, a text is answered from the memo with the
   statement of its second; the same text on a twin catalog, whose
   identity is new, is parsed afresh and gives an equal statement. *)
let check_memo_hits label build texts =
  let catalog = build () and twin = build () in
  List.iter
    (fun sql ->
      let first = Sqlfront.parse catalog sql in
      let second = Sqlfront.parse catalog sql in
      let third = Sqlfront.parse catalog sql in
      let fresh = Sqlfront.parse twin sql in
      Alcotest.(check bool) (label ^ ": a first parse is not kept: " ^ sql) true
        (second != first);
      Alcotest.(check bool) (label ^ ": third parse is a memo hit: " ^ sql) true
        (third == second);
      Alcotest.(check bool) (label ^ ": twin is parsed afresh: " ^ sql) true (fresh != second);
      Alcotest.(check bool) (label ^ ": hit = fresh parse: " ^ sql) true
        (Logical.equal third.logical fresh.logical
        && Phys_prop.equal third.required fresh.required))
    texts

let test_memo_hit_equals_parse () =
  check_memo_hits "suite_sql" Helpers.small_catalog suite_statements

(* Every statement shape the benchmark serves: its warm statements, and
   one round of the steps of a workload that warms nothing. *)
let test_memo_benchmark_shapes () =
  List.iter
    (fun name ->
      let wl = Option.get (Perfbench.Workloads.make name ~seed:1) in
      let steps =
        List.init wl.round wl.step
        |> List.filter_map (function
             | Perfbench.Workloads.Sql sql -> Some sql
             | Perfbench.Workloads.Analyze _ -> None)
      in
      check_memo_hits name wl.catalog (List.sort_uniq String.compare (wl.warm @ steps)))
    Perfbench.Workloads.names

(* Table "t" with the given columns and one row. *)
let add_table catalog columns =
  let schema = Array.of_list (List.map (fun (c, ty) -> Schema.attribute c ty) columns) in
  let value = function
    | Schema.TInt -> Value.Int 1
    | Schema.TFloat -> Value.Float 1.
    | Schema.TStr -> Value.Str "a"
    | Schema.TBool -> Value.Bool true
  in
  let row = Array.of_list (List.map (fun (_, ty) -> value ty) columns) in
  ignore (Catalog.add catalog ~name:"t" ~schema [| row |])

(* A same-named table without the column: the memoized statement is
   stale, and the text no longer parses. *)
let test_memo_schema_change () =
  let catalog = Catalog.create () in
  add_table catalog [ ("n", Schema.TInt); ("x", Schema.TInt) ];
  let sql = "SELECT t.x FROM t WHERE t.n > 1" in
  ignore (Sqlfront.parse catalog sql);
  let kept = Sqlfront.parse catalog sql in
  Alcotest.(check bool) "memo hit before the change" true (Sqlfront.parse catalog sql == kept);
  Catalog.remove catalog "t";
  add_table catalog [ ("n", Schema.TInt) ];
  match Sqlfront.parse catalog sql with
  | exception Sqlfront.Parse_error _ -> ()
  | _ -> Alcotest.fail "a text naming a dropped column still parses"

(* Failures are not memoized: a failing text raises on every call, and
   parses once the table it names exists. *)
let test_memo_failures_not_stored () =
  let catalog = Catalog.create () in
  let sql = "SELECT * FROM t WHERE t.n = 1" in
  for call = 1 to 3 do
    match Sqlfront.parse catalog sql with
    | exception Sqlfront.Parse_error _ -> ()
    | _ -> Alcotest.failf "call %d parsed a text naming an unknown table" call
  done;
  add_table catalog [ ("n", Schema.TInt) ];
  let st = Sqlfront.parse catalog sql in
  Alcotest.(check (list string)) "parses once the table exists" [ "t" ]
    (Logical.relations st.logical)

(* Arithmetic over a string or a boolean, column or constant, is a parse
   error; the evaluator would raise on it. *)
let test_arith_type_check () =
  let catalog = Catalog.create () in
  add_table catalog
    [ ("n", Schema.TInt); ("f", Schema.TFloat); ("s", Schema.TStr); ("b", Schema.TBool) ];
  let where pred = Printf.sprintf "SELECT * FROM t WHERE %s" pred in
  List.iter
    (fun pred ->
      match Sqlfront.parse catalog (where pred) with
      | exception Sqlfront.Parse_error _ -> ()
      | _ -> Alcotest.fail ("should not parse: " ^ pred))
    [
      "t.n = 1 AND t.s + 1 > 0";
      "t.b * 2 > 0";
      "1 - t.s < 3";
      "t.n + 'a' > 0";
      "t.n + TRUE > 0";
      "(t.n < 1) + 1 > 0";
      "t.n + (t.f * t.s) > 0";
    ];
  List.iter
    (fun pred -> ignore (Sqlfront.parse catalog (where pred)))
    [ "t.n + 1 > 0"; "t.f * 2.5 - t.n / 2 < 1"; "t.s = 'a' AND t.n - (1 + t.f) > 0" ]

let suite =
  [
    Alcotest.test_case "simple select" `Quick test_simple_select;
    Alcotest.test_case "where" `Quick test_where_becomes_select;
    Alcotest.test_case "join spine" `Quick test_join_spine;
    Alcotest.test_case "unqualified columns" `Quick test_unqualified_resolution;
    Alcotest.test_case "order by / distinct" `Quick test_order_by_and_distinct;
    Alcotest.test_case "projection" `Quick test_projection_list;
    Alcotest.test_case "aggregates" `Quick test_aggregates;
    Alcotest.test_case "union" `Quick test_union;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "sql to rows" `Quick test_sql_to_rows;
    Alcotest.test_case "literals and operators" `Quick test_literals_and_operators;
    Alcotest.test_case "memo hit = fresh parse" `Quick test_memo_hit_equals_parse;
    Alcotest.test_case "memo over benchmark shapes" `Quick test_memo_benchmark_shapes;
    Alcotest.test_case "memo misses a schema change" `Quick test_memo_schema_change;
    Alcotest.test_case "memo keeps no failure" `Quick test_memo_failures_not_stored;
    Alcotest.test_case "arithmetic is type-checked" `Quick test_arith_type_check;
  ]
