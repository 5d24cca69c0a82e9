(* Tests of the relational model specification: property derivation,
   rule semantics (associativity predicate bookkeeping), enforcers,
   deliver functions, and the neutral plan re-coster. *)

open Relalg

let catalog = Helpers.small_catalog ()

let test_derive_get () =
  let p = Relmodel.Derive.expr catalog (Logical.get "r") in
  Alcotest.(check (float 0.)) "card" 60. p.Logical_props.card;
  Alcotest.(check (list string)) "relations" [ "r" ] p.Logical_props.relations;
  Alcotest.(check int) "columns qualified" 3 (Array.length p.Logical_props.schema)

let test_derive_select_reduces () =
  let q = Logical.select Expr.(col "r.a" =% int 3) (Logical.get "r") in
  let p = Relmodel.Derive.expr catalog q in
  let base = Relmodel.Derive.expr catalog (Logical.get "r") in
  Alcotest.(check bool) "smaller" true (p.Logical_props.card < base.Logical_props.card);
  Alcotest.(check bool) "positive" true (p.Logical_props.card > 0.)

let test_derive_join_schema_and_relations () =
  let q = Expr.(Logical.join (col "r.a" =% col "s.a") (Logical.get "r") (Logical.get "s")) in
  let p = Relmodel.Derive.expr catalog q in
  Alcotest.(check int) "schema concat" 6 (Array.length p.Logical_props.schema);
  Alcotest.(check (list string)) "relations union" [ "r"; "s" ] p.Logical_props.relations;
  let cart = Relmodel.Derive.expr catalog (Logical.join Expr.true_ (Logical.get "r") (Logical.get "s")) in
  Alcotest.(check (float 1.)) "cartesian card" (60. *. 40.) cart.Logical_props.card;
  Alcotest.(check bool) "join smaller than cartesian" true
    (p.Logical_props.card < cart.Logical_props.card)

let test_derive_group_by () =
  let q =
    Logical.group_by [ "r.a" ]
      [ { Logical.func = Logical.Count; column = None; alias = "n" } ]
      (Logical.get "r")
  in
  let p = Relmodel.Derive.expr catalog q in
  Alcotest.(check (list string)) "schema" [ "r.a"; "n" ] (Schema.names p.Logical_props.schema);
  Alcotest.(check bool) "about ten groups" true
    (p.Logical_props.card >= 5. && p.Logical_props.card <= 10.)

let test_commuted_join_same_card () =
  (* Commutativity must not change cardinality estimates, or the memo's
     frozen group properties would be ill-defined. *)
  let pred = Expr.(col "r.a" =% col "s.a") in
  let a = Relmodel.Derive.expr catalog (Logical.join pred (Logical.get "r") (Logical.get "s")) in
  let b = Relmodel.Derive.expr catalog (Logical.join pred (Logical.get "s") (Logical.get "r")) in
  Alcotest.(check (float 1e-9)) "same card" a.Logical_props.card b.Logical_props.card

let test_assoc_split () =
  let sa = (Catalog.find catalog "r").Catalog.schema in
  let sb = (Catalog.find catalog "s").Catalog.schema in
  let sc = (Catalog.find catalog "t").Catalog.schema in
  ignore sa;
  let open Expr in
  let p1 = col "s.c" =% col "t.c" &&% (col "r.a" >% int 0) in
  let p2 = col "r.a" =% col "s.a" in
  let top, bottom = Relmodel.Rewrites.assoc_split ~p1 ~p2 ~schema_b:sb ~schema_c:sc in
  (* s.c = t.c refers only to B+C: it must sink; the others rise. *)
  Alcotest.(check bool) "bottom gets the s-t predicate" true
    (List.exists (Expr.equal (col "s.c" =% col "t.c")) (Expr.conjuncts bottom));
  Alcotest.(check int) "one conjunct below" 1 (List.length (Expr.conjuncts bottom));
  Alcotest.(check int) "two conjuncts above" 2 (List.length (Expr.conjuncts top))

(* Model-level checks through a first-class instance. *)
module M = (val Relmodel.Rel_model.make ~catalog ())

let test_deliver_functions () =
  let sorted = Phys_prop.sorted (Sort_order.asc [ "r.a" ]) in
  (* Filter is transparent. *)
  Alcotest.(check bool) "filter passes props" true
    (Phys_prop.equal (M.deliver (Physical.Filter Expr.true_) [ sorted ]) sorted);
  (* Sort establishes order and preserves distinctness. *)
  let distinct_in = Phys_prop.with_distinct Phys_prop.any in
  let out = M.deliver (Physical.Sort (Sort_order.asc [ "r.a" ])) [ distinct_in ] in
  Alcotest.(check bool) "sort keeps distinct" true out.Phys_prop.distinct;
  Alcotest.(check bool) "sort sets order" true
    (Sort_order.equal out.Phys_prop.order (Sort_order.asc [ "r.a" ]));
  (* Hash dedup destroys order but establishes distinct (enforce one,
     destroy another — paper §2.2). *)
  let out2 = M.deliver Physical.Hash_dedup [ sorted ] in
  Alcotest.(check bool) "dedup destroys order" true (out2.Phys_prop.order = []);
  Alcotest.(check bool) "dedup sets distinct" true out2.Phys_prop.distinct;
  (* Hash join delivers nothing. *)
  Alcotest.(check bool) "hash join unordered" true
    (Phys_prop.equal (M.deliver (Physical.Hash_join ([], Expr.true_)) [ sorted; sorted ]) Phys_prop.any);
  (* Nested loops preserves the outer order. *)
  let out3 = M.deliver (Physical.Nested_loop_join Expr.true_) [ sorted; Phys_prop.any ] in
  Alcotest.(check bool) "nl keeps outer order" true
    (Sort_order.equal out3.Phys_prop.order sorted.Phys_prop.order)

let test_enforcers_valid_columns_only () =
  let props = Relmodel.Derive.expr catalog (Logical.get "r") in
  let good = M.enforcers ~props ~required:(Phys_prop.sorted (Sort_order.asc [ "r.a" ])) in
  Alcotest.(check bool) "sort offered for own column" true
    (List.exists (fun (alg, _, _) -> match alg with Physical.Sort _ -> true | _ -> false) good);
  let bad = M.enforcers ~props ~required:(Phys_prop.sorted (Sort_order.asc [ "s.a" ])) in
  Alcotest.(check bool) "no sort on a foreign column" true
    (not (List.exists (fun (alg, _, _) -> match alg with Physical.Sort _ -> true | _ -> false) bad))

let test_enforcers_trivial_requirement () =
  let props = Relmodel.Derive.expr catalog (Logical.get "r") in
  Alcotest.(check int) "no enforcers for the trivial goal" 0
    (List.length (M.enforcers ~props ~required:Phys_prop.any))

let test_enforcer_excluding_vectors () =
  let props = Relmodel.Derive.expr catalog (Logical.get "r") in
  let required = Phys_prop.sorted (Sort_order.asc [ "r.a" ]) in
  List.iter
    (fun (alg, relaxed, excluded) ->
      match alg with
      | Physical.Sort o ->
        Alcotest.(check bool) "sort on the required order" true
          (Sort_order.equal o required.Phys_prop.order);
        Alcotest.(check bool) "relaxed drops the order" true (relaxed.Phys_prop.order = []);
        Alcotest.(check bool) "excluded carries the order" true
          (Sort_order.equal excluded.Phys_prop.order required.Phys_prop.order)
      | _ -> ())
    (M.enforcers ~props ~required)

let test_plan_cost_estimate_consistent () =
  (* For a plan whose shape matches the original derivation, the
     neutral estimator and the optimizer's own accounting agree. *)
  let q = Logical.select Expr.(col "r.a" >% int 2) (Logical.get "r") in
  let result =
    Relmodel.Optimizer.optimize
      { (Relmodel.Optimizer.request catalog) with restore_columns = false }
      q ~required:Phys_prop.any
  in
  match result.plan with
  | None -> Alcotest.fail "no plan"
  | Some p ->
    let neutral =
      Relmodel.Plan_cost.estimate catalog (Relmodel.Optimizer.to_physical p)
    in
    Alcotest.(check (float 1e-9)) "own == neutral" (Cost.total p.cost) (Cost.total neutral)

let test_plan_cost_monotone_in_children () =
  let scan = Physical.mk (Physical.Table_scan "r") [] in
  let filtered = Physical.mk (Physical.Filter Expr.(col "r.a" >% int 5)) [ scan ] in
  let c1 = Cost.total (Relmodel.Plan_cost.estimate catalog scan) in
  let c2 = Cost.total (Relmodel.Plan_cost.estimate catalog filtered) in
  Alcotest.(check bool) "filter adds cost" true (c2 > c1)

let test_cost_adt_laws () =
  let a = Cost.make ~io:1. ~cpu:2. and b = Cost.make ~io:3. ~cpu:0.5 in
  Alcotest.(check (float 1e-12)) "add total" (Cost.total a +. Cost.total b)
    (Cost.total (Cost.add a b));
  Alcotest.(check bool) "zero is neutral" true (Cost.compare (Cost.add a Cost.zero) a = 0);
  Alcotest.(check bool) "infinite absorbs" true (Cost.is_infinite (Cost.add a Cost.infinite));
  Alcotest.(check bool) "sub clamps at zero" true
    (Cost.total (Cost.sub Cost.zero a) = 0.);
  Alcotest.(check bool) "sub of infinite stays infinite" true
    (Cost.is_infinite (Cost.sub Cost.infinite a))

let suite =
  [
    Alcotest.test_case "derive get" `Quick test_derive_get;
    Alcotest.test_case "derive select" `Quick test_derive_select_reduces;
    Alcotest.test_case "derive join" `Quick test_derive_join_schema_and_relations;
    Alcotest.test_case "derive group by" `Quick test_derive_group_by;
    Alcotest.test_case "commuted join same card" `Quick test_commuted_join_same_card;
    Alcotest.test_case "assoc predicate split" `Quick test_assoc_split;
    Alcotest.test_case "deliver functions" `Quick test_deliver_functions;
    Alcotest.test_case "enforcers check columns" `Quick test_enforcers_valid_columns_only;
    Alcotest.test_case "no enforcers for any" `Quick test_enforcers_trivial_requirement;
    Alcotest.test_case "excluding vectors" `Quick test_enforcer_excluding_vectors;
    Alcotest.test_case "plan cost consistency" `Quick test_plan_cost_estimate_consistent;
    Alcotest.test_case "plan cost monotone" `Quick test_plan_cost_monotone_in_children;
    Alcotest.test_case "cost ADT laws" `Quick test_cost_adt_laws;
  ]
