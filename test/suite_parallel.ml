(* Tests of partitioning as a physical property (paper §4.1/§6): the
   exchange enforcers, co-partitioned joins, parallel cost division, and
   execution correctness of plans containing exchanges. *)

open Relalg

let parallel_params workers = { Cost_model.default with workers }

(* Two tables hash-partitioned on their join keys, one small singleton
   table. *)
let catalog =
  let c = Catalog.create () in
  let add_part name rows seed partitioning =
    let rng = Random.State.make [| seed |] in
    let tuples =
      Array.init rows (fun i ->
          [| Value.Int i; Value.Int (Random.State.int rng 200); Value.Int (Random.State.int rng 10) |])
    in
    let schema =
      [|
        Schema.attribute (name ^ ".id") Schema.TInt;
        Schema.attribute (name ^ ".k") Schema.TInt;
        Schema.attribute (name ^ ".v") Schema.TInt;
      |]
    in
    ignore (Catalog.add c ~name ~schema ?stored_partitioning:partitioning tuples)
  in
  add_part "big1" 5_000 1 (Some (Phys_prop.Hashed [ "big1.k" ]));
  add_part "big2" 4_000 2 (Some (Phys_prop.Hashed [ "big2.k" ]));
  add_part "small" 50 3 None;
  c

let () = ignore (Catalog.find catalog "small")

let join_query =
  Expr.(Logical.join (col "big1.k" =% col "big2.k") (Logical.get "big1") (Logical.get "big2"))

let optimize ?(workers = 4) ?(required = Phys_prop.gathered) query =
  let request =
    {
      (Relmodel.Optimizer.request catalog) with
      params = parallel_params workers;
      restore_columns = false;
    }
  in
  Relmodel.Optimizer.optimize request query ~required

let rec plan_algs (p : Relmodel.Optimizer.plan_node) =
  p.alg :: List.concat_map plan_algs p.children

let test_partitioning_covers () =
  let open Phys_prop in
  let partitioning_covers ~provided ~required =
    covers ~provided:(with_partitioning provided any) ~required:(with_partitioning required any)
  in
  Alcotest.(check bool) "any_part always satisfied" true
    (partitioning_covers ~provided:(Hashed [ "x" ]) ~required:Any_part);
  Alcotest.(check bool) "hashed matches same columns" true
    (partitioning_covers ~provided:(Hashed [ "x" ]) ~required:(Hashed [ "x" ]));
  Alcotest.(check bool) "hashed mismatch" false
    (partitioning_covers ~provided:(Hashed [ "x" ]) ~required:(Hashed [ "y" ]));
  Alcotest.(check bool) "hashed is not singleton" false
    (partitioning_covers ~provided:(Hashed [ "x" ]) ~required:Singleton)

let test_scan_delivers_partitioning () =
  let result = optimize ~required:Phys_prop.any (Logical.get "big1") in
  match result.plan with
  | Some p ->
    Alcotest.(check bool) "scan output is hash-partitioned" true
      (p.props.Phys_prop.partitioning = Phys_prop.Hashed [ "big1.k" ])
  | None -> Alcotest.fail "no plan"

let test_gather_for_singleton_requirement () =
  let result = optimize (Logical.get "big1") in
  match result.plan with
  | Some { alg = Physical.Gather | Physical.Merge_gather _; props; _ } ->
    Alcotest.(check bool) "delivered at one site" true
      (props.Phys_prop.partitioning = Phys_prop.Singleton)
  | Some p ->
    Alcotest.fail ("expected a gather at the root, got " ^ Physical.alg_name p.alg)
  | None -> Alcotest.fail "no plan"

let test_copartitioned_join () =
  (* Both inputs are already partitioned on the join key: the parallel
     join should run in place and gather at the end. *)
  let result = optimize join_query in
  match result.plan with
  | None -> Alcotest.fail "no plan"
  | Some p ->
    let algs = plan_algs p in
    Alcotest.(check bool) "a gather somewhere" true
      (List.exists (function Physical.Gather | Physical.Merge_gather _ -> true | _ -> false) algs);
    Alcotest.(check bool) "no repartition needed (co-partitioned)" true
      (not (List.exists (function Physical.Repartition _ -> true | _ -> false) algs))

let test_parallel_beats_serial_estimate () =
  let par = optimize ~workers:8 join_query in
  let ser = optimize ~workers:1 join_query in
  match par.plan, ser.plan with
  | Some p, Some s ->
    Alcotest.(check bool)
      (Printf.sprintf "8 workers cheaper (%.4f < %.4f)" (Cost.total p.cost) (Cost.total s.cost))
      true
      (Cost.total p.cost < Cost.total s.cost)
  | _, _ -> Alcotest.fail "missing plan"

let test_repartition_when_keys_differ () =
  (* Join big1 and big2 on v: stored partitionings (on k) are useless,
     so either both sides gather or they repartition on v. *)
  let q =
    Expr.(Logical.join (col "big1.v" =% col "big2.v") (Logical.get "big1") (Logical.get "big2"))
  in
  let result = optimize ~workers:16 q in
  match result.plan with
  | None -> Alcotest.fail "no plan"
  | Some p ->
    let algs = plan_algs p in
    Alcotest.(check bool) "exchanges appear" true
      (List.exists
         (function
           | Physical.Repartition _ | Physical.Gather | Physical.Merge_gather _ -> true
           | _ -> false)
         algs)

let test_ordered_gather () =
  let required =
    Phys_prop.with_partitioning Phys_prop.Singleton
      (Phys_prop.sorted (Sort_order.asc [ "big1.k" ]))
  in
  let result = optimize ~required join_query in
  match result.plan with
  | None -> Alcotest.fail "no plan"
  | Some p ->
    Alcotest.(check bool) "covers the ordered singleton goal" true
      (Phys_prop.covers ~provided:p.props ~required)

let test_exchanges_execute_as_identity () =
  (* The single-node engine runs exchange operators as identity, so a
     parallel-optimized plan still computes the right answer. *)
  let result = optimize join_query in
  match result.plan with
  | None -> Alcotest.fail "no plan"
  | Some p ->
    let actual, _, _ = Executor.run catalog (Relmodel.Optimizer.to_physical p) in
    let expected, _ = Executor.naive catalog join_query in
    Helpers.check_same_bag "parallel plan result" expected actual

let test_workers_one_no_exchanges () =
  (* With one worker and singleton tables, plans never contain
     exchange operators. *)
  let c = Helpers.small_catalog () in
  let q = Expr.(Logical.join (col "r.a" =% col "s.a") (Logical.get "r") (Logical.get "s")) in
  let result =
    Relmodel.Optimizer.optimize (Relmodel.Optimizer.request c) q ~required:Phys_prop.any
  in
  match result.plan with
  | None -> Alcotest.fail "no plan"
  | Some p ->
    Alcotest.(check bool) "no exchanges" true
      (not
         (List.exists
            (function
              | Physical.Repartition _ | Physical.Gather | Physical.Merge_gather _ -> true
              | _ -> false)
            (plan_algs p)))

let suite =
  [
    Alcotest.test_case "partitioning covers" `Quick test_partitioning_covers;
    Alcotest.test_case "scan delivers partitioning" `Quick test_scan_delivers_partitioning;
    Alcotest.test_case "gather enforcer" `Quick test_gather_for_singleton_requirement;
    Alcotest.test_case "co-partitioned join" `Quick test_copartitioned_join;
    Alcotest.test_case "parallel beats serial" `Quick test_parallel_beats_serial_estimate;
    Alcotest.test_case "repartition on other keys" `Quick test_repartition_when_keys_differ;
    Alcotest.test_case "ordered gather" `Quick test_ordered_gather;
    Alcotest.test_case "exchanges execute as identity" `Quick test_exchanges_execute_as_identity;
    Alcotest.test_case "no exchanges when serial" `Quick test_workers_one_no_exchanges;
  ]

(* Property: adding workers never makes the estimated optimum worse
   (parallel variants only add plan choices). *)
let prop_monotone_in_workers =
  let gen = QCheck.Gen.(pair (int_range 1 12) (int_range 0 8)) in
  Helpers.qcheck_case ~count:20 "optimum monotone in workers" (QCheck.make gen)
    (fun (w, extra) ->
      let w2 = w + extra in
      let cost_at workers =
        match (optimize ~workers join_query).plan with
        | Some p -> Cost.total p.cost
        | None -> Float.infinity
      in
      cost_at w2 <= cost_at w +. 1e-9)

let suite = suite @ [ prop_monotone_in_workers ]
