(* Integration tests: optimize a logical query, execute the winning
   plan on the Volcano iterator engine, and compare against the naive
   evaluation oracle. This exercises the optimizer, the memo, the rule
   set, property enforcement, and every execution operator at once. *)

open Relalg
open Expr

let catalog = Helpers.small_catalog ()

let join_rs = Logical.join (col "r.a" =% col "s.a") (Logical.get "r") (Logical.get "s")

let join_rst =
  Logical.join (col "s.c" =% col "t.c") join_rs (Logical.get "t")

let test_single_scan () =
  ignore (Helpers.check_optimized_matches_naive catalog (Logical.get "r"))

let test_select () =
  ignore
    (Helpers.check_optimized_matches_naive catalog
       (Logical.select (col "r.a" >% int 5) (Logical.get "r")))

let test_two_way_join () = ignore (Helpers.check_optimized_matches_naive catalog join_rs)

let test_three_way_join () =
  ignore (Helpers.check_optimized_matches_naive catalog join_rst)

let test_join_with_selections () =
  let q =
    Logical.select
      (col "r.b" <=% int 3 &&% (col "t.c" >% int 2))
      join_rst
  in
  ignore (Helpers.check_optimized_matches_naive catalog q)

let test_ordered_output () =
  let required = Phys_prop.sorted (Sort_order.asc [ "r.a" ]) in
  let plan = Helpers.check_optimized_matches_naive ~required catalog join_rs in
  let actual, schema, _ = Executor.run catalog (Relmodel.Optimizer.to_physical plan) in
  Alcotest.(check bool)
    "output is sorted by r.a" true
    (Sort_order.is_sorted schema (Sort_order.asc [ "r.a" ]) actual)

let test_ordered_output_desc_via_sort () =
  let required = Phys_prop.sorted [ ("r.a", Sort_order.Desc) ] in
  let plan = Helpers.check_optimized_matches_naive ~required catalog join_rs in
  let actual, schema, _ = Executor.run catalog (Relmodel.Optimizer.to_physical plan) in
  Alcotest.(check bool)
    "output is sorted by r.a desc" true
    (Sort_order.is_sorted schema [ ("r.a", Sort_order.Desc) ] actual)

let test_distinct_output () =
  let q = Logical.project [ "r.a" ] (Logical.get "r") in
  let required = Phys_prop.with_distinct Phys_prop.any in
  let plan = Helpers.optimize_plan ~required catalog q in
  let actual, _, _ = Executor.run catalog (Relmodel.Optimizer.to_physical plan) in
  let expected, _ = Executor.naive catalog q in
  let distinct_expected = Array.of_seq (Seq.of_dispenser (
    let seen = Hashtbl.create 16 in
    let pos = ref 0 in
    fun () ->
      let rec go () =
        if !pos >= Array.length expected then None
        else begin
          let t = expected.(!pos) in
          incr pos;
          let key = Array.to_list t in
          if Hashtbl.mem seen key then go ()
          else begin
            Hashtbl.add seen key ();
            Some t
          end
        end
      in
      go ()))
  in
  Helpers.check_same_bag "distinct projection" distinct_expected actual

let test_distinct_and_ordered () =
  let q = Logical.project [ "r.a" ] (Logical.get "r") in
  let required = Phys_prop.with_distinct (Phys_prop.sorted (Sort_order.asc [ "r.a" ])) in
  let plan = Helpers.optimize_plan ~required catalog q in
  let actual, schema, _ = Executor.run catalog (Relmodel.Optimizer.to_physical plan) in
  Alcotest.(check bool)
    "sorted" true
    (Sort_order.is_sorted schema (Sort_order.asc [ "r.a" ]) actual);
  let keys = Array.map (fun t -> Value.to_string t.(0)) actual in
  let distinct = Array.of_list (List.sort_uniq compare (Array.to_list keys)) in
  Alcotest.(check int) "no duplicates" (Array.length distinct) (Array.length actual)

let test_union () =
  let q =
    Logical.union
      (Logical.project [ "r.id" ] (Logical.get "r"))
      (Logical.project [ "s.id" ] (Logical.get "s"))
  in
  ignore (Helpers.check_optimized_matches_naive catalog q)

let test_intersect () =
  let q =
    Logical.intersect
      (Logical.project [ "r.a" ] (Logical.get "r"))
      (Logical.project [ "s.a" ] (Logical.get "s"))
  in
  ignore (Helpers.check_optimized_matches_naive catalog q)

let test_difference () =
  let q =
    Logical.difference
      (Logical.project [ "r.a" ] (Logical.get "r"))
      (Logical.project [ "s.a" ] (Logical.get "s"))
  in
  ignore (Helpers.check_optimized_matches_naive catalog q)

let test_group_by () =
  let q =
    Logical.group_by [ "r.a" ]
      [
        { Logical.func = Logical.Count; column = None; alias = "n" };
        { Logical.func = Logical.Sum; column = Some "r.b"; alias = "total_b" };
      ]
      (Logical.get "r")
  in
  ignore (Helpers.check_optimized_matches_naive catalog q)

let test_group_by_join () =
  let q =
    Logical.group_by [ "r.b" ]
      [ { Logical.func = Logical.Count; column = None; alias = "n" } ]
      join_rs
  in
  ignore (Helpers.check_optimized_matches_naive catalog q)

let test_group_by_null_and_mixed_keys () =
  (* GROUP BY keeps NULL = NULL and [Int 1] = [Float 1.]: one group
     each; aggregates mix Int and Float values and skip NULLs. *)
  let catalog = Catalog.create () in
  let i n = Value.Int n and f x = Value.Float x in
  let rows : Tuple.t array =
    [|
      [| Value.Null; i 3 |]; [| i 1; i 4 |]; [| f 1.; f 0.5 |]; [| Value.Null; Value.Null |];
      [| i 2; i 7 |]; [| f 2.; Value.Null |]; [| i 1; f 2. |]; [| Value.Null; f 1.5 |];
    |]
  in
  ignore
    (Catalog.add catalog ~name:"m"
       ~schema:[| Schema.attribute "g" Schema.TFloat; Schema.attribute "v" Schema.TFloat |]
       rows);
  let q =
    Logical.group_by [ "m.g" ]
      [
        { Logical.func = Logical.Count; column = None; alias = "n" };
        { Logical.func = Logical.Count; column = Some "m.v"; alias = "nv" };
        { Logical.func = Logical.Sum; column = Some "m.v"; alias = "s" };
        { Logical.func = Logical.Min; column = Some "m.v"; alias = "lo" };
        { Logical.func = Logical.Max; column = Some "m.v"; alias = "hi" };
        { Logical.func = Logical.Avg; column = Some "m.v"; alias = "a" };
      ]
      (Logical.get "m")
  in
  ignore (Helpers.check_optimized_matches_naive catalog q);
  let expected, _ = Executor.naive catalog q in
  Alcotest.(check (list string)) "three groups: NULL, 1, 2"
    [
      "[NULL; 3; 2; 4.5; 1.5; 3; 2.25]"; "[1; 3; 3; 6.5; 0.5; 4; 2.16667]";
      "[2; 2; 1; 7; 7; 7; 7]";
    ]
    (List.map (Format.asprintf "%a" Tuple.pp) (Array.to_list expected))

let test_cost_limit_failure () =
  (* A tiny cost limit must make optimization fail, not return a bogus
     plan ("catch unreasonable queries", §3). *)
  let req =
    { (Relmodel.Optimizer.request catalog) with limit = Some (Cost.make ~io:0. ~cpu:1e-12) }
  in
  let result = Relmodel.Optimizer.optimize req join_rst ~required:Phys_prop.any in
  Alcotest.(check bool) "no plan under absurd limit" true (result.plan = None)

let test_generous_limit_same_plan () =
  let unlimited = Helpers.optimize_plan catalog join_rst in
  let req =
    { (Relmodel.Optimizer.request catalog) with limit = Some (Cost.make ~io:1e6 ~cpu:1e6) }
  in
  let result = Relmodel.Optimizer.optimize req join_rst ~required:Phys_prop.any in
  match result.plan with
  | None -> Alcotest.fail "plan expected under generous limit"
  | Some p ->
    Alcotest.(check (float 1e-9))
      "same optimal cost" (Cost.total unlimited.cost) (Cost.total p.cost)

let suite =
  [
    Alcotest.test_case "single scan" `Quick test_single_scan;
    Alcotest.test_case "selection" `Quick test_select;
    Alcotest.test_case "two-way join" `Quick test_two_way_join;
    Alcotest.test_case "three-way join" `Quick test_three_way_join;
    Alcotest.test_case "join with selections" `Quick test_join_with_selections;
    Alcotest.test_case "ORDER BY via properties" `Quick test_ordered_output;
    Alcotest.test_case "ORDER BY desc" `Quick test_ordered_output_desc_via_sort;
    Alcotest.test_case "DISTINCT via properties" `Quick test_distinct_output;
    Alcotest.test_case "DISTINCT + ORDER BY" `Quick test_distinct_and_ordered;
    Alcotest.test_case "union" `Quick test_union;
    Alcotest.test_case "intersect" `Quick test_intersect;
    Alcotest.test_case "difference" `Quick test_difference;
    Alcotest.test_case "group by" `Quick test_group_by;
    Alcotest.test_case "group by over join" `Quick test_group_by_join;
    Alcotest.test_case "group by NULL and mixed-type keys" `Quick
      test_group_by_null_and_mixed_keys;
    Alcotest.test_case "absurd cost limit fails" `Quick test_cost_limit_failure;
    Alcotest.test_case "generous cost limit keeps optimum" `Quick test_generous_limit_same_plan;
  ]

(* Property: for random queries and random physical-property goals, the
   winning plan's promises are kept by its actual execution — output is
   sorted as claimed and duplicate-free when claimed (the paper's
   consistency check, verified against ground truth rather than against
   the property functions). *)
let prop_promises_kept =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 3
      and* seed = int_range 0 3_000
      and* want_distinct = bool
      and* order_col = oneofl [ "jk1"; "jk2"; "val"; "id" ]
      and* order_rel = int_range 0 3 in
      return (n, seed, want_distinct, order_col, order_rel))
  in
  Helpers.qcheck_case ~count:15 "plan promises hold under execution" (QCheck.make gen)
    (fun (n, seed, want_distinct, order_col, order_rel) ->
      let q = Workload.generate (Workload.spec ~n_relations:n ~seed ()) in
      let column = Printf.sprintf "rel%d.%s" (order_rel mod n) order_col in
      let required =
        let base = Phys_prop.sorted (Sort_order.asc [ column ]) in
        if want_distinct then Phys_prop.with_distinct base else base
      in
      let request =
        { (Relmodel.Optimizer.request q.catalog) with restore_columns = false }
      in
      match (Relmodel.Optimizer.optimize request q.logical ~required).plan with
      | None -> false
      | Some plan ->
        let rows, schema, _ =
          Executor.run q.catalog (Relmodel.Optimizer.to_physical plan)
        in
        let sorted = Sort_order.is_sorted schema (Sort_order.asc [ column ]) rows in
        let distinct_ok =
          (not want_distinct)
          ||
          let seen = Hashtbl.create 64 in
          Array.for_all
            (fun t ->
              let key = Array.to_list t in
              if Hashtbl.mem seen key then false
              else begin
                Hashtbl.add seen key ();
                true
              end)
            rows
        in
        sorted && distinct_ok)

let suite = suite @ [ prop_promises_kept ]
