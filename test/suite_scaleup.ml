(* Tests of the plan-space scale-up machinery: the ablation arms must
   find the same plan on random topologies, and the anytime budget
   ladder must behave monotonically. *)

open Relalg

(* Render a result so "bit-identical" means operators, properties, and
   per-node costs down to the last bit. *)
let render (result : Relmodel.Optimizer.result) =
  match result.plan with
  | None -> "NONE"
  | Some p ->
    Printf.sprintf "%s|%.17g" (Relmodel.Optimizer.explain p) (Cost.total p.cost)

let optimize_arm q ~required ~guided =
  let request =
    {
      (Relmodel.Optimizer.request q.Workload.catalog) with
      restore_columns = false;
      guided_pruning = guided;
    }
  in
  Relmodel.Optimizer.optimize request q.Workload.logical ~required

(* Under unbounded budgets the guided and unguided arms find
   bit-identical plans. Exercised across random
   topologies (cyclic ones included), skew, correlation, and both
   required properties. *)
let qcheck_arms_identical =
  let gen =
    QCheck.Gen.(
      let* n = int_range 3 5 in
      let* shape = oneofl Workload.all_shapes in
      let* seed = int_range 0 10_000 in
      let* skew = oneofl [ 0.; 0.5; 1. ] in
      let* correlation = oneofl [ None; Some 0.; Some 0.8; Some 1. ] in
      let* sorted = bool in
      return (n, shape, seed, skew, correlation, sorted))
  in
  let print (n, shape, seed, skew, correlation, sorted) =
    Printf.sprintf "n=%d shape=%s seed=%d skew=%g corr=%s sorted=%b" n
      (Workload.shape_name shape) seed skew
      (match correlation with None -> "-" | Some c -> string_of_float c)
      sorted
  in
  Helpers.qcheck_case ~count:12 "pruning arms agree"
    (QCheck.make ~print gen)
    (fun (n, shape, seed, skew, correlation, sorted) ->
      let q =
        Workload.generate
          (Workload.spec ~shape ~skew ?correlation ~n_relations:n ~seed ())
      in
      let required =
        if sorted then Phys_prop.sorted (Sort_order.asc [ List.hd q.relations ^ ".jk1" ])
        else Phys_prop.any
      in
      render (optimize_arm q ~required ~guided:true)
      = render (optimize_arm q ~required ~guided:false))

let anytime_of q ~budgets =
  let request =
    { (Relmodel.Optimizer.request q.Workload.catalog) with restore_columns = false }
  in
  Relmodel.Optimizer.optimize_anytime request ~budgets q.Workload.logical
    ~required:Phys_prop.any

(* Anytime monotonicity: along the budget ladder, best-so-far never
   appears and then disappears, never gets worse, tasks never run
   backwards, and completeness is absorbing with a stable final cost. *)
let test_anytime_monotone () =
  let q =
    Workload.generate
      (Workload.spec ~shape:Workload.Cycle ~skew:0.7 ~correlation:0.85
         ~n_relations:7 ~seed:21 ())
  in
  let a = anytime_of q ~budgets:[ 100; 500; 2_000; 10_000; 50_000; 1_000_000_000 ] in
  Alcotest.(check int) "one point per budget" 6 (List.length a.an_points);
  let rec walk (prev : Relmodel.Optimizer.anytime_point option) = function
    | [] -> ()
    | (p : Relmodel.Optimizer.anytime_point) :: rest ->
      (match prev with
       | None -> ()
       | Some pr ->
         Alcotest.(check bool) "budgets ascend" true (p.at_budget > pr.at_budget);
         Alcotest.(check bool) "tasks never run backwards" true
           (p.at_tasks >= pr.at_tasks);
         (match (pr.at_cost, p.at_cost) with
          | Some c0, Some c1 ->
            Alcotest.(check bool) "best-so-far never worsens" true
              (Cost.total c1 <= Cost.total c0)
          | Some _, None -> Alcotest.fail "best-so-far disappeared"
          | None, _ -> ());
         if pr.at_complete then begin
           Alcotest.(check bool) "completeness is absorbing" true p.at_complete;
           match (pr.at_cost, p.at_cost) with
           | Some c0, Some c1 ->
             Alcotest.(check (float 0.)) "final cost stable" (Cost.total c0)
               (Cost.total c1)
           | _ -> Alcotest.fail "complete rung without a plan"
         end);
      walk (Some p) rest
  in
  walk None a.an_points;
  let last = List.nth a.an_points (List.length a.an_points - 1) in
  Alcotest.(check bool) "unbounded rung completes" true last.at_complete;
  (* The incumbent log: tasks ascend, costs strictly improve, and
     the last incumbent is the final plan's cost. *)
  let rec check_incumbents = function
    | (t0, c0) :: ((t1, c1) :: _ as rest) ->
      Alcotest.(check bool) "incumbent tasks ascend" true (t1 >= t0);
      Alcotest.(check bool) "incumbent costs strictly improve" true
        (Cost.total c1 < Cost.total c0);
      check_incumbents rest
    | _ -> ()
  in
  check_incumbents a.an_incumbents;
  match (a.an_result.plan, List.rev a.an_incumbents) with
  | Some p, (_, c) :: _ ->
    Alcotest.(check (float 0.)) "last incumbent is the final cost"
      (Cost.total p.cost) (Cost.total c)
  | Some _, [] -> Alcotest.fail "plan found but no incumbent recorded"
  | None, _ -> Alcotest.fail "no plan on the unbounded rung"

(* The ladder's final state must agree with a plain one-shot
   optimization of the same request. *)
let test_anytime_matches_one_shot () =
  let q =
    Workload.generate
      (Workload.spec ~shape:Workload.Clique ~skew:0.5 ~n_relations:5 ~seed:33 ())
  in
  let a = anytime_of q ~budgets:[ 1_000_000_000 ] in
  let one_shot = optimize_arm q ~required:Phys_prop.any ~guided:true in
  Alcotest.(check bool) "both complete" true (a.an_result.complete && one_shot.complete);
  Alcotest.(check string) "identical plan" (render one_shot) (render a.an_result)

(* With the request's [explain] on, a rung paused with a best-so-far
   plan explains that plan, and a completed ladder's result carries the
   winner's provenance, the text the one-shot optimization gives. *)
let test_anytime_explain () =
  let q =
    Workload.generate
      (Workload.spec ~shape:Workload.Chain ~skew:0.5 ~n_relations:5 ~seed:17 ())
  in
  let request =
    { (Relmodel.Optimizer.request q.Workload.catalog) with restore_columns = false; explain = true }
  in
  let ladder budgets =
    Relmodel.Optimizer.optimize_anytime request ~budgets q.Workload.logical
      ~required:Phys_prop.any
  in
  let partial = ladder [ 2_000 ] in
  Alcotest.(check bool) "the short rung stops early with a plan" true
    ((not partial.an_result.complete) && partial.an_result.plan <> None);
  (match partial.an_result.explain, partial.an_result.plan with
   | Some text, Some plan ->
     let root_line = List.hd (String.split_on_char '\n' text) in
     let cost = "; cost " ^ Relalg.Cost.to_string plan.Relmodel.Optimizer.cost ^ ";" in
     Alcotest.(check bool)
       ("the paused explain's root line has the plan's cost: " ^ root_line)
       true
       (Helpers.contains root_line cost)
   | None, _ -> Alcotest.fail "the paused rung's plan has no explain"
   | Some _, None -> Alcotest.fail "explain without a plan");
  let full = ladder [ 2_000; 1_000_000_000 ] in
  let one_shot = Relmodel.Optimizer.optimize request q.Workload.logical ~required:Phys_prop.any in
  Alcotest.(check bool) "both complete" true (full.an_result.complete && one_shot.complete);
  Alcotest.(check bool) "explain with the completed plan" true (full.an_result.explain <> None);
  Alcotest.(check (option string)) "completed ladder explains as the one-shot run"
    one_shot.explain full.an_result.explain

(* Move ordering is the model's static rule promise, so no move is
   ever scored; the anytime counter tracks root-goal improvements. *)
let test_promise_counters () =
  let q =
    Workload.generate
      (Workload.spec ~shape:Workload.Star ~n_relations:5 ~seed:44 ())
  in
  let s = (optimize_arm q ~required:Phys_prop.any ~guided:true).stats in
  Alcotest.(check int) "no promise evals" 0 s.promise_evals;
  Alcotest.(check bool) "anytime improvements tracked" true
    (s.anytime_improvements >= 0)

let suite =
  [
    qcheck_arms_identical;
    Alcotest.test_case "anytime monotone" `Quick test_anytime_monotone;
    Alcotest.test_case "anytime matches one-shot" `Quick test_anytime_matches_one_shot;
    Alcotest.test_case "anytime explain" `Quick test_anytime_explain;
    Alcotest.test_case "promise counters" `Quick test_promise_counters;
  ]
