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
  let preds = Pred.create () in
  let cols t = Pred.colset preds (Catalog.find catalog t).Catalog.schema in
  let open Expr in
  let p1 = Pred.of_expr preds (col "s.c" =% col "t.c" &&% (col "r.a" >% int 0)) in
  let p2 = Pred.of_expr preds (col "r.a" =% col "s.a") in
  let top, bottom =
    Relmodel.Rewrites.assoc_split preds ~p1 ~p2 ~cols_b:(cols "s") ~cols_c:(cols "t")
  in
  (* s.c = t.c refers only to B+C: it must sink; the others rise. *)
  Alcotest.(check bool) "bottom gets the s-t predicate" true
    (List.exists (Expr.equal (col "s.c" =% col "t.c")) (Expr.conjuncts (Pred.expr bottom)));
  Alcotest.(check int) "one conjunct below" 1 (List.length (Pred.conjuncts bottom));
  Alcotest.(check int) "two conjuncts above" 2 (List.length (Pred.conjuncts top))

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

(* ------------------------------------------------------------------ *)
(* Interned predicates against the name-resolving code they replaced.  *)
(* ------------------------------------------------------------------ *)

(* Test-only copies of the name-resolving predicate placement that
   interning replaced: conjuncts placed by resolving their column
   names against schemas with [Schema.find_index]. *)
module By_name = struct
  let rec refers_only_to schema = function
    | Expr.Col c -> Schema.mem schema c
    | Expr.Const _ -> true
    | Expr.Not e -> refers_only_to schema e
    | Expr.Cmp (_, a, b) | Expr.And (a, b) | Expr.Or (a, b) | Expr.Arith (_, a, b) ->
      refers_only_to schema a && refers_only_to schema b

  let key_pair ~left ~right a b =
    let la = Schema.find_index left a and ra = Schema.find_index right a in
    let lb = Schema.find_index left b and rb = Schema.find_index right b in
    if la >= 0 && rb >= 0 && ra < 0 && lb < 0 then
      Some (left.(la).Schema.name, right.(rb).Schema.name)
    else if lb >= 0 && ra >= 0 && rb < 0 && la < 0 then
      Some (left.(lb).Schema.name, right.(ra).Schema.name)
    else None

  let rec add_keys ~left ~right acc = function
    | Expr.And (a, b) -> add_keys ~left ~right (add_keys ~left ~right acc a) b
    | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b) -> begin
      match key_pair ~left ~right a b with Some k -> k :: acc | None -> acc
    end
    | _ -> acc

  let equijoin_keys expr ~left ~right = List.rev (add_keys ~left ~right [] expr)

  let assoc_split ~p1 ~p2 ~schema_b ~schema_c =
    let sbc = Schema.concat schema_b schema_c in
    let all = Expr.conjuncts p1 @ Expr.conjuncts p2 in
    let bottom, top = List.partition (refers_only_to sbc) all in
    (Expr.conjoin top, Expr.conjoin bottom)

  let push_split p ~left ~right =
    let on_left, rest = List.partition (refers_only_to left) (Expr.conjuncts p) in
    let on_right, to_join = List.partition (refers_only_to right) rest in
    (on_left, on_right, to_join)
end

(* Columns of B and C drawn with repeats from a pool with base names
   shared across tables and one unqualified column ("a", as an
   aggregate alias is); conjuncts also name unqualified and unknown
   columns, and constants only. *)
let column_pool = [| "r.a"; "r.b"; "s.a"; "s.c"; "t.c"; "t.d"; "a" |]

let schema_gen =
  QCheck.Gen.(
    map
      (fun names -> Array.of_list (List.map (fun n -> Schema.attribute n Schema.TInt) names))
      (list_size (int_range 1 4) (oneofa column_pool)))

let conjunct_gen =
  QCheck.Gen.(
    let name = oneof [ oneofa column_pool; oneofl [ "a"; "b"; "c"; "d"; "u.v" ] ] in
    let rec term depth =
      if depth = 0 then
        frequency [ (3, map Expr.col name); (1, map Expr.int (int_range 0 3)) ]
      else
        frequency
          [
            (4, term 0);
            (1, map2 (fun x y -> Expr.Arith (Expr.Add, x, y)) (term (depth - 1)) (term (depth - 1)));
          ]
    in
    let cmp =
      map3
        (fun op x y -> Expr.Cmp (op, x, y))
        (oneofl Expr.[ Eq; Eq; Eq; Lt; Ge ])
        (term 1) (term 1)
    in
    frequency
      [
        (6, cmp);
        (1, map2 (fun x y -> Expr.Or (x, y)) cmp cmp);
        (1, map (fun x -> Expr.Not x) cmp);
        (1, return Expr.(int 1 <% int 2));
      ])

(* A predicate as a query or a rule leaves it: any And tree. *)
let pred_gen =
  QCheck.Gen.(
    map
      (fun cs ->
        match cs with
        | [] -> Expr.true_
        | c :: rest -> List.fold_left (fun acc c -> Expr.And (c, acc)) c rest)
      (list_size (int_range 0 4) conjunct_gen))

let placement_arb =
  QCheck.make
    ~print:(fun (b, c, p1, p2) ->
      Printf.sprintf "B=(%s) C=(%s) p1=%s p2=%s"
        (String.concat ", " (Schema.names b)) (String.concat ", " (Schema.names c))
        (Expr.to_string p1) (Expr.to_string p2))
    QCheck.Gen.(quad schema_gen schema_gen pred_gen pred_gen)

(* One table for every case, so later cases meet the conjuncts and
   conjunctions that earlier ones interned. *)
let shared_preds = Pred.create ()

let prop_interned_placement =
  Helpers.qcheck_case ~count:500 "interned placement == name resolution" placement_arb
    (fun (schema_b, schema_c, p1, p2) ->
      let preds = shared_preds in
      let cols_b = Pred.colset preds schema_b and cols_c = Pred.colset preds schema_c in
      let i1 = Pred.of_expr preds p1 and i2 = Pred.of_expr preds p2 in
      let exprs = List.map Pred.conj_expr in
      let top, bottom = By_name.assoc_split ~p1 ~p2 ~schema_b ~schema_c in
      let itop, ibottom = Relmodel.Rewrites.assoc_split preds ~p1:i1 ~p2:i2 ~cols_b ~cols_c in
      let l, r, j = By_name.push_split p1 ~left:schema_b ~right:schema_c in
      let il, ir, ij = Relmodel.Rewrites.push_split i1 ~left:cols_b ~right:cols_c in
      Expr.equal (Pred.expr itop) top
      && Expr.equal (Pred.expr ibottom) bottom
      && itop == Pred.of_expr preds top
      && ibottom == Pred.of_expr preds bottom
      && exprs il = l && exprs ir = r && exprs ij = j
      && Expr.equal (Pred.expr (Pred.conjoin preds (Pred.conjuncts i1))) (Expr.conjoin (Expr.conjuncts p1))
      && By_name.equijoin_keys p1 ~left:schema_b ~right:schema_c
         = Pred.equijoin_keys i1 ~left:cols_b ~right:cols_c
      && By_name.equijoin_keys p2 ~left:(Schema.concat schema_b schema_c) ~right:schema_b
         = Pred.equijoin_keys i2 ~left:(Pred.concat cols_b cols_c) ~right:cols_b)

(* Plans and search counters recorded before predicates were interned:
   interning must not move any of them. Chain 7 is the workload's
   (seed 11,900); the cycle has six tables of 12–30 rows, as perfbench's
   join_search statements do. *)
let chain7_plan = {|project[rel0.id, rel0.jk1, rel0.jk2, rel0.val, rel1.id, rel1.jk1, rel1.jk2, rel1.val, rel2.id, rel2.jk1, rel2.jk2, rel2.val, rel3.id, rel3.jk1, rel3.jk2, rel3.val, rel4.id, rel4.jk1, rel4.jk2, rel4.val, rel5.id, rel5.jk1, rel5.jk2, rel5.val, rel6.id, rel6.jk1, rel6.jk2, rel6.val]  [{order: rel2.jk1}; cost 114.568284s (io 16.320801, cpu 98.247483)]
  merge_join[rel2.jk1=rel3.jk1]  [{order: rel2.jk1}; cost 114.568284s (io 16.320801, cpu 98.247483)]
    merge_join[rel2.jk1=rel1.jk1]  [{order: rel2.jk1}; cost 9.158509s (io 6.369141, cpu 2.789368)]
      sort[rel2.jk1]  [{order: rel2.jk1}; cost 1.994693s (io 1.805176, cpu 0.189518)]
        filter[rel2.val > 342]  [{any}; cost 1.935137s (io 1.805176, cpu 0.129961)]
          table_scan(rel2)  [{any}; cost 1.879116s (io 1.805176, cpu 0.073940)]
      merge_join[rel1.jk1=rel0.jk1]  [{order: rel1.jk1}; cost 5.426881s (io 4.563965, cpu 0.862916)]
        sort[rel1.jk1]  [{order: rel1.jk1}; cost 2.825038s (io 2.547363, cpu 0.277675)]
          filter[rel1.val <= 684]  [{any}; cost 2.733577s (io 2.547363, cpu 0.186214)]
            table_scan(rel1)  [{any}; cost 2.651703s (io 2.547363, cpu 0.104340)]
        sort[rel0.jk1]  [{order: rel0.jk1}; cost 2.226031s (io 2.016602, cpu 0.209429)]
          filter[rel0.val > 358]  [{any}; cost 2.160461s (io 2.016602, cpu 0.143860)]
            table_scan(rel0)  [{any}; cost 2.099202s (io 2.016602, cpu 0.082600)]
    merge_join[rel3.jk1=rel4.jk1]  [{order: rel3.jk1}; cost 12.031636s (io 9.951660, cpu 2.079976)]
      sort[rel3.jk1]  [{order: rel3.jk1}; cost 3.587159s (io 3.373047, cpu 0.214112)]
        filter[rel3.val <= 209]  [{any}; cost 3.553927s (io 3.373047, cpu 0.180880)]
          table_scan(rel3)  [{any}; cost 3.511207s (io 3.373047, cpu 0.138160)]
      merge_join[rel4.jk1=rel5.jk1]  [{order: rel4.jk1}; cost 7.647480s (io 6.578613, cpu 1.068867)]
        sort[rel4.jk1]  [{order: rel4.jk1}; cost 3.025145s (io 2.681152, cpu 0.343993)]
          filter[rel4.val <= 874]  [{any}; cost 2.898033s (io 2.681152, cpu 0.216881)]
            table_scan(rel4)  [{any}; cost 2.790972s (io 2.681152, cpu 0.109820)]
        merge_join[rel5.jk1=rel6.jk1]  [{order: rel5.jk1}; cost 4.246732s (io 3.897461, cpu 0.349272)]
          sort[rel5.jk1]  [{order: rel5.jk1}; cost 2.647116s (io 2.516602, cpu 0.130514)]
            filter[rel5.val <= 84]  [{any}; cost 2.638657s (io 2.516602, cpu 0.122055)]
              table_scan(rel5)  [{any}; cost 2.619682s (io 2.516602, cpu 0.103080)]
          sort[rel6.jk1]  [{order: rel6.jk1}; cost 1.552482s (io 1.380859, cpu 0.171622)]
            filter[rel6.val <= 868]  [{any}; cost 1.492219s (io 1.380859, cpu 0.111359)]
              table_scan(rel6)  [{any}; cost 1.437419s (io 1.380859, cpu 0.056560)]|}

let cycle6_plan = {|project[rel0.id, rel0.jk1, rel0.jk2, rel0.val, rel1.id, rel1.jk1, rel1.jk2, rel1.val, rel2.id, rel2.jk1, rel2.jk2, rel2.val, rel3.id, rel3.jk1, rel3.jk2, rel3.val, rel4.id, rel4.jk1, rel4.jk2, rel4.val, rel5.id, rel5.jk1, rel5.jk2, rel5.val]  [{order: rel1.jk1, rel5.jk1}; cost 0.128302s (io 0.120000, cpu 0.008302)]
  merge_join[rel1.jk1=rel0.jk1, rel5.jk1=rel0.jk1]  [{order: rel1.jk1, rel5.jk1}; cost 0.128302s (io 0.120000, cpu 0.008302)]
    sort[rel1.jk1, rel5.jk1]  [{order: rel1.jk1, rel5.jk1}; cost 0.106947s (io 0.100000, cpu 0.006947)]
      merge_join[rel1.jk1=rel2.jk1]  [{order: rel1.jk1}; cost 0.106429s (io 0.100000, cpu 0.006429)]
        sort[rel1.jk1]  [{order: rel1.jk1}; cost 0.021223s (io 0.020000, cpu 0.001223)]
          filter[rel1.val > 358]  [{any}; cost 0.021021s (io 0.020000, cpu 0.001021)]
            table_scan(rel1)  [{any}; cost 0.020580s (io 0.020000, cpu 0.000580)]
        merge_join[rel2.jk1=rel3.jk1]  [{order: rel2.jk1}; cost 0.084310s (io 0.080000, cpu 0.004310)]
          sort[rel2.jk1]  [{order: rel2.jk1}; cost 0.021124s (io 0.020000, cpu 0.001124)]
            filter[rel2.val <= 684]  [{any}; cost 0.020927s (io 0.020000, cpu 0.000927)]
              table_scan(rel2)  [{any}; cost 0.020500s (io 0.020000, cpu 0.000500)]
          merge_join[rel3.jk1=rel4.jk1]  [{order: rel3.jk1}; cost 0.062703s (io 0.060000, cpu 0.002703)]
            sort[rel3.jk1]  [{order: rel3.jk1}; cost 0.020919s (io 0.020000, cpu 0.000919)]
              filter[rel3.val > 342]  [{any}; cost 0.020768s (io 0.020000, cpu 0.000768)]
                table_scan(rel3)  [{any}; cost 0.020420s (io 0.020000, cpu 0.000420)]
            nested_loop_join[rel4.jk1 = rel5.jk1]  [{order: rel4.jk1}; cost 0.041537s (io 0.040000, cpu 0.001537)]
              sort[rel4.jk1]  [{order: rel4.jk1}; cost 0.020739s (io 0.020000, cpu 0.000739)]
                filter[rel4.val <= 209]  [{any}; cost 0.020702s (io 0.020000, cpu 0.000702)]
                  table_scan(rel4)  [{any}; cost 0.020540s (io 0.020000, cpu 0.000540)]
              filter[rel5.val <= 874]  [{any}; cost 0.020533s (io 0.020000, cpu 0.000533)]
                table_scan(rel5)  [{any}; cost 0.020260s (io 0.020000, cpu 0.000260)]
    filter[rel0.val > 77]  [{order: rel0.jk1, rel0.jk1}; cost 0.021053s (io 0.020000, cpu 0.001053)]
      sort[rel0.jk1, rel0.jk1]  [{order: rel0.jk1, rel0.jk1}; cost 0.020613s (io 0.020000, cpu 0.000613)]
        table_scan(rel0)  [{any}; cost 0.020400s (io 0.020000, cpu 0.000400)]|}

let check_pinned name (q : Workload.query) ~counters ~plan =
  let r = Relmodel.Optimizer.optimize (Relmodel.Optimizer.request q.catalog) q.logical
      ~required:Phys_prop.any in
  let s = r.stats in
  Alcotest.(check (list int))
    (name ^ ": tasks, groups_created, merges, mexprs_created, rule_firings")
    counters
    [ s.tasks; s.groups_created; s.merges; s.mexprs_created; s.rule_firings ];
  match r.plan with
  | Some p -> Alcotest.(check string) (name ^ ": plan") plan (Relmodel.Optimizer.explain p)
  | None -> Alcotest.fail (name ^ ": no plan")

let chain7 () =
  Workload.generate (Workload.spec ~shape:Workload.Chain ~n_relations:7 ~seed:11_900 ())

let test_interning_keeps_plans () =
  check_pinned "chain 7" (chain7 ())
    ~counters:[ 15_861; 1_522; 1_388; 4_677; 13_006 ]
    ~plan:chain7_plan;
  check_pinned "cycle 6"
    (Workload.generate
       (Workload.spec ~shape:Workload.Cycle ~min_rows:12 ~max_rows:30 ~n_relations:6
          ~seed:11_900 ()))
    ~counters:[ 45_488; 409; 340; 1_239; 2_918 ]
    ~plan:cycle6_plan

(* One join-assoc firing at the root of chain 7, JOIN(p1, JOIN(p2, A, B),
   C) with B = rel5 and C = rel6, once its conjunctions are interned.
   The name-resolving rule allocated 113 words here: a 28-column
   [Schema.concat] and the conjunct lists. *)
let assoc_firing_words_ceiling = 60.

let test_assoc_firing_allocation () =
  let q = chain7 () in
  let module M = (val Relmodel.Rel_model.make ~catalog:q.catalog ()) in
  let rule =
    List.find (fun (r : _ Volcano.Rule.transform) -> r.t_name = "join-assoc") M.transforms
  in
  match q.logical with
  | { op = Logical.Join _ as top; inputs = [ { op = Logical.Join _ as below; inputs = [ a; b ] }; c ] }
    ->
    let rec derive t = M.derive (Volcano.Tree.op t) (List.map derive (Volcano.Tree.inputs t)) in
    let props = Array.map (fun e -> derive (M.to_tree e)) [| a; b; c |] in
    let lookup g = props.(g) in
    let binding =
      Volcano.Rule.(
        Node (M.intern top, [ Node (M.intern below, [ Group 0; Group 1 ]); Group 2 ]))
    in
    let fire () = rule.t_apply ~lookup binding in
    let ops = function
      | [ Volcano.Rule.Node (o, [ _; Volcano.Rule.Node (o', _) ]) ] -> [ o; o' ]
      | _ -> []
    in
    let first = ops (fire ()) in
    let again, used = Helpers.alloc_words fire in
    Alcotest.(check int) "one rewrite" 2 (List.length first);
    Alcotest.(check bool) "the same operators" true (List.for_all2 ( == ) first (ops again));
    Alcotest.(check bool)
      (Printf.sprintf "%.0f words <= %.0f" used assoc_firing_words_ceiling)
      true
      (used <= assoc_firing_words_ceiling)
  | _ -> Alcotest.fail "chain 7 is not a left-deep join"

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
    prop_interned_placement;
    Alcotest.test_case "interning keeps plans and counters" `Quick test_interning_keeps_plans;
    Alcotest.test_case "join-assoc firing allocation" `Quick test_assoc_firing_allocation;
  ]
