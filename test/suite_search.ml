(* Tests of FindBestPlan: optimality against an independent brute-force
   oracle, pruning losslessness, failure caching and limit semantics,
   property-vector consistency of extracted plans. *)

open Relalg

(* ------------------------------------------------------------------ *)
(* An independent plan enumerator for two-relation select-join queries.
   It shares only the cost model with the optimizer, not the search. *)
(* ------------------------------------------------------------------ *)

let enumerate_plans catalog (query : Logical.expr) ~(order : Sort_order.t) :
    Physical.plan list =
  let j_pred, leaves =
    match query with
    | { Logical.op = Logical.Join p; inputs = [ l; r ] } -> (p, [ l; r ])
    | _ -> invalid_arg "enumerate_plans: expected a top-level two-way join"
  in
  let side (leaf : Logical.expr) : Physical.plan list * Schema.t =
    match leaf with
    | { Logical.op = Logical.Get t; inputs = [] } ->
      let schema = (Catalog.find catalog t).Catalog.schema in
      ([ Physical.mk (Physical.Table_scan t) [] ], schema)
    | { Logical.op = Logical.Select p; inputs = [ { Logical.op = Logical.Get t; _ } ] } ->
      let schema = (Catalog.find catalog t).Catalog.schema in
      ( [ Physical.mk (Physical.Filter p) [ Physical.mk (Physical.Table_scan t) [] ] ],
        schema )
    | _ -> invalid_arg "enumerate_plans: leaves must be (selected) gets"
  in
  let l_plans, l_schema = side (List.nth leaves 0) in
  let r_plans, r_schema = side (List.nth leaves 1) in
  let keys =
    let preds = Pred.create () in
    Pred.equijoin_keys (Pred.of_expr preds j_pred) ~left:(Pred.colset preds l_schema)
      ~right:(Pred.colset preds r_schema)
  in
  let swap (a, b) = (b, a) in
  let joins =
    List.concat_map
      (fun l ->
        List.concat_map
          (fun r ->
            let sorted_on cols p = Physical.mk (Physical.Sort (Sort_order.asc cols)) [ p ] in
            let both_orders f = [ f l r keys; f r l (List.map swap keys) ] in
            let nl =
              both_orders (fun a b _ -> Physical.mk (Physical.Nested_loop_join j_pred) [ a; b ])
            in
            let hash =
              if keys = [] then []
              else
                both_orders (fun a b ks -> Physical.mk (Physical.Hash_join (ks, j_pred)) [ a; b ])
            in
            let merge =
              if keys = [] then []
              else
                both_orders (fun a b ks ->
                    Physical.mk
                      (Physical.Merge_join (ks, j_pred))
                      [ sorted_on (List.map fst ks) a; sorted_on (List.map snd ks) b ])
            in
            nl @ hash @ merge)
          r_plans)
      l_plans
  in
  if order = [] then joins
  else begin
    (* Either sort the join result, or keep a join that already
       delivers the order: the bare plans (a merge join on the order's
       column qualifies), plus nested-loop joins over an outer sorted on
       it. The caller keeps only the plans whose order is guaranteed. *)
    let has_order_col schema = Schema.mem schema (fst (List.hd order)) in
    let sorted_outer =
      List.concat_map
        (fun l ->
          List.concat_map
            (fun r ->
              let nl a b =
                Physical.mk (Physical.Nested_loop_join j_pred)
                  [ Physical.mk (Physical.Sort order) [ a ]; b ]
              in
              (if has_order_col l_schema then [ nl l r ] else [])
              @ if has_order_col r_schema then [ nl r l ] else [])
            r_plans)
        l_plans
    in
    List.map (fun p -> Physical.mk (Physical.Sort order) [ p ]) joins
    @ joins @ sorted_outer
  end

(* The order a plan guarantees by its structure alone, under the
   relational model's property functions: a sort establishes its order,
   filters and the outer (left) input of a nested-loop or merge join
   pass it through, and everything else promises none. *)
let rec structural_order (p : Physical.plan) : Sort_order.t =
  match (p.alg, p.children) with
  | Physical.Sort o, _ -> o
  | Physical.Filter _, [ i ]
  | (Physical.Nested_loop_join _ | Physical.Merge_join _), i :: _ ->
    structural_order i
  | _ -> []

(* A plan counts as delivering [order] only if its structure guarantees
   it — output that merely happens to be sorted on the sampled data does
   not count — and running it confirms the order. *)
let plan_delivers catalog (order : Sort_order.t) (p : Physical.plan) =
  Sort_order.covers ~provided:(structural_order p) ~required:order
  &&
  let tuples, schema, _ = Executor.run catalog p in
  Schema.mem schema (fst (List.hd order)) && Sort_order.is_sorted schema order tuples

let optimizer_cost catalog query ~required ~pruning =
  let request =
    { (Relmodel.Optimizer.request catalog) with pruning; restore_columns = false }
  in
  let result = Relmodel.Optimizer.optimize request query ~required in
  Option.map
    (fun (p : Relmodel.Optimizer.plan_node) ->
      (Relmodel.Plan_cost.estimate catalog (Relmodel.Optimizer.to_physical p), p))
    result.plan

(* Random two-relation query over a random catalog. *)
let two_rel_case_gen =
  QCheck.Gen.(
    let* rows_r = int_range 40 120
    and* rows_s = int_range 40 120
    and* sel_r = int_range 0 9
    and* with_select = bool
    and* seed = int_range 0 10_000 in
    return (rows_r, rows_s, sel_r, with_select, seed))

let build_two_rel (rows_r, rows_s, sel_r, with_select, seed) =
  let catalog = Catalog.create () in
  let add name rows s =
    ignore
      (Catalog.add_synthetic catalog ~name
         ~columns:[ ("k", Catalog.Uniform_int (0, 9)); ("v", Catalog.Uniform_int (0, 9)) ]
         ~rows ~seed:s ())
  in
  add "r" rows_r seed;
  add "s" rows_s (seed + 1);
  let open Expr in
  let leaf_r =
    if with_select then Logical.select (col "r.v" <=% int sel_r) (Logical.get "r")
    else Logical.get "r"
  in
  let query = Logical.join (col "r.k" =% col "s.k") leaf_r (Logical.get "s") in
  (catalog, query)

let prop_optimal_vs_bruteforce =
  Helpers.qcheck_case ~count:40 "optimizer <= brute force (2 relations)"
    (QCheck.make two_rel_case_gen) (fun case ->
      let catalog, query = build_two_rel case in
      match optimizer_cost catalog query ~required:Phys_prop.any ~pruning:true with
      | None -> false
      | Some (opt_cost, _) ->
        let plans = enumerate_plans catalog query ~order:[] in
        let best_enum =
          List.fold_left
            (fun acc p -> Float.min acc (Cost.total (Relmodel.Plan_cost.estimate catalog p)))
            Float.infinity plans
        in
        Cost.total opt_cost <= best_enum +. 1e-9)

let prop_pruning_lossless =
  Helpers.qcheck_case ~count:30 "pruning on/off find equal optima"
    (QCheck.make two_rel_case_gen) (fun case ->
      let catalog, query = build_two_rel case in
      match
        ( optimizer_cost catalog query ~required:Phys_prop.any ~pruning:true,
          optimizer_cost catalog query ~required:Phys_prop.any ~pruning:false )
      with
      | Some (a, _), Some (b, _) -> Float.abs (Cost.total a -. Cost.total b) < 1e-9
      | _, _ -> false)

let prop_ordered_goal_sound =
  Helpers.qcheck_case ~count:30 "plans for ordered goals deliver the order"
    (QCheck.make two_rel_case_gen) (fun case ->
      let catalog, query = build_two_rel case in
      let order = Sort_order.asc [ "r.k" ] in
      match
        optimizer_cost catalog query ~required:(Phys_prop.sorted order) ~pruning:true
      with
      | None -> false
      | Some (_, plan) ->
        plan_delivers catalog order (Relmodel.Optimizer.to_physical plan))

let prop_ordered_vs_bruteforce =
  Helpers.qcheck_case ~count:25 "ordered goal <= brute force with sorts"
    (QCheck.make two_rel_case_gen) (fun case ->
      let catalog, query = build_two_rel case in
      let order = Sort_order.asc [ "r.k" ] in
      match
        optimizer_cost catalog query ~required:(Phys_prop.sorted order) ~pruning:true
      with
      | None -> false
      | Some (opt_cost, _) ->
        let plans =
          enumerate_plans catalog query ~order
          |> List.filter (plan_delivers catalog order)
        in
        let best_enum =
          List.fold_left
            (fun acc p -> Float.min acc (Cost.total (Relmodel.Plan_cost.estimate catalog p)))
            Float.infinity plans
        in
        Cost.total opt_cost <= best_enum +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Limit and failure-caching semantics                                  *)
(* ------------------------------------------------------------------ *)

let catalog = Helpers.small_catalog ()

let join_query =
  Expr.(Logical.join (col "r.a" =% col "s.a") (Logical.get "r") (Logical.get "s"))

let optimize_with_limit limit =
  let request =
    { (Relmodel.Optimizer.request catalog) with limit; restore_columns = false }
  in
  Relmodel.Optimizer.optimize request join_query ~required:Phys_prop.any

let test_limit_boundary () =
  (* Find the optimum, then verify the limit is honoured both sides of
     the optimal cost. *)
  match (optimize_with_limit None).plan with
  | None -> Alcotest.fail "unlimited optimization failed"
  | Some best ->
    let c = Cost.total best.cost in
    let above = optimize_with_limit (Some (Cost.make ~io:0. ~cpu:(c *. 1.01))) in
    Alcotest.(check bool) "slightly above optimum succeeds" true (above.plan <> None);
    let below = optimize_with_limit (Some (Cost.make ~io:0. ~cpu:(c *. 0.5))) in
    Alcotest.(check bool) "half the optimum fails" true (below.plan = None)

let test_failure_then_success_fresh_optimizer () =
  (* The paper reinitializes partial results per query; a fresh
     optimizer after a failed attempt must still find the plan. *)
  let c =
    match (optimize_with_limit None).plan with
    | Some p -> Cost.total p.cost
    | None -> Alcotest.fail "unlimited optimization failed"
  in
  let failed = optimize_with_limit (Some (Cost.make ~io:0. ~cpu:(c /. 2.))) in
  Alcotest.(check bool) "failed under tight limit" true (failed.plan = None);
  let ok = optimize_with_limit None in
  Alcotest.(check bool) "fresh run succeeds" true (ok.plan <> None)

let test_search_stats_populated () =
  let result =
    Relmodel.Optimizer.optimize (Relmodel.Optimizer.request catalog) join_query
      ~required:Phys_prop.any
  in
  let s = result.stats in
  Alcotest.(check bool) "goals counted" true (s.goals > 0);
  Alcotest.(check bool) "plans costed" true (s.plans_costed > 0);
  Alcotest.(check bool) "rules fired" true (s.rule_firings > 0);
  Alcotest.(check bool) "memo populated" true (result.memo_mexprs >= 4)

let test_plan_props_cover_goal () =
  let required = Phys_prop.with_distinct (Phys_prop.sorted (Sort_order.asc [ "r.a" ])) in
  let q = Logical.project [ "r.a" ] (Logical.get "r") in
  let result =
    Relmodel.Optimizer.optimize (Relmodel.Optimizer.request catalog) q ~required
  in
  match result.plan with
  | None -> Alcotest.fail "no plan"
  | Some p ->
    Alcotest.(check bool) "promised props cover the requirement" true
      (Phys_prop.covers ~provided:p.props ~required)

(* Inverse transformation rules must not loop: optimize a query whose
   exploration round-trips select-merge and pushdown repeatedly. *)
let test_inverse_rules_terminate () =
  let open Expr in
  let q =
    Logical.select
      (col "r.b" >% int 1)
      (Logical.select
         (col "r.a" >% int 2)
         (Logical.join (col "r.a" =% col "s.a")
            (Logical.select (col "r.b" <=% int 4) (Logical.get "r"))
            (Logical.get "s")))
  in
  let result =
    Relmodel.Optimizer.optimize (Relmodel.Optimizer.request catalog) q
      ~required:Phys_prop.any
  in
  Alcotest.(check bool) "terminates with a plan" true (result.plan <> None)

(* The optimizer's incremental accounting must agree exactly with a
   bottom-up re-costing of the extracted plan: cardinality estimation is
   derivation-path-independent, so the memo's frozen group properties
   and the plan's own shape yield the same numbers. *)
let prop_cost_accounting_consistent =
  let gen = QCheck.Gen.(pair (int_range 2 5) (int_range 0 5000)) in
  Helpers.qcheck_case ~count:25 "own cost == neutral re-cost" (QCheck.make gen)
    (fun (n, seed) ->
      let q = Workload.generate (Workload.spec ~n_relations:n ~seed ()) in
      let request =
        { (Relmodel.Optimizer.request q.catalog) with restore_columns = false }
      in
      match (Relmodel.Optimizer.optimize request q.logical ~required:Phys_prop.any).plan with
      | None -> false
      | Some p ->
        let neutral =
          Relmodel.Plan_cost.estimate q.catalog (Relmodel.Optimizer.to_physical p)
        in
        Float.abs (Cost.total p.cost -. Cost.total neutral) < 1e-6 *. Cost.total p.cost +. 1e-9)

let suite =
  [
    prop_optimal_vs_bruteforce;
    prop_cost_accounting_consistent;
    prop_pruning_lossless;
    prop_ordered_goal_sound;
    prop_ordered_vs_bruteforce;
    Alcotest.test_case "cost limit boundary" `Quick test_limit_boundary;
    Alcotest.test_case "failure then fresh success" `Quick test_failure_then_success_fresh_optimizer;
    Alcotest.test_case "search stats populated" `Quick test_search_stats_populated;
    Alcotest.test_case "plan props cover the goal" `Quick test_plan_props_cover_goal;
    Alcotest.test_case "inverse rules terminate" `Quick test_inverse_rules_terminate;
  ]
