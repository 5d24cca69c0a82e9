(* Tests of the explicit task engine: golden plan costs against the
   recursive engine it replaced, budgets and anytime plans, failure
   caching observed through the task counters, resumability, and span
   tracing. *)

open Relalg

(* ------------------------------------------------------------------ *)
(* Golden plan costs                                                   *)
(* ------------------------------------------------------------------ *)

(* Winning plan costs recorded from the seed recursive engine (PR 0) on
   seeded paper-style workloads, exhaustive search, bare plans (no
   column-restoring projection). The task engine must reproduce them
   exactly: same memoized winners, same branch-and-bound arithmetic. *)

(* (n_relations, seed, cost with no requirement, cost sorted on the
   first relation's jk1) for chain-shaped queries. *)
let golden_chain =
  [
    (2, 11, 2.719843728, 3.179941510);
    (2, 23, 2.249610724, 2.249610724);
    (2, 42, 4.396997975, 4.396997975);
    (3, 11, 7.353301507, 7.353301507);
    (3, 23, 4.336324454, 4.336324454);
    (3, 42, 6.683663355, 7.060915910);
    (4, 11, 6.722604455, 6.837956860);
    (4, 23, 7.000138822, 7.004945243);
    (4, 42, 11.033511393, 11.837808443);
    (5, 11, 9.107850929, 9.114017189);
    (5, 23, 8.525771961, 8.666151647);
    (5, 42, 73.068731901, 1753.028290731);
    (6, 11, 13.529168341, 56.297521566);
    (6, 23, 11.168764357, 12.284949509);
    (6, 42, 18.890240582, 22.381516967);
  ]

(* (n_relations, cost with no requirement) for star-shaped queries,
   seed 100 + n. *)
let golden_star = [ (3, 5.221257341); (4, 11.549146041); (5, 14.609767043) ]

let close msg expected actual =
  let ok = Float.abs (actual -. expected) <= 1e-6 *. Float.max 1. (Float.abs expected) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.9f, got %.9f" msg expected actual)
    true ok

let workload_cost ~shape ~n ~seed ~required =
  let q = Workload.generate (Workload.spec ~shape ~n_relations:n ~seed ()) in
  let request =
    { (Relmodel.Optimizer.request q.catalog) with restore_columns = false }
  in
  match (Relmodel.Optimizer.optimize request q.logical ~required).plan with
  | None -> Alcotest.fail "no plan on a golden workload"
  | Some p -> (q, Cost.total p.cost)

let test_golden_chain () =
  List.iter
    (fun (n, seed, want_any, want_sorted) ->
      let q, got_any =
        workload_cost ~shape:Workload.Chain ~n ~seed ~required:Phys_prop.any
      in
      close (Printf.sprintf "chain n=%d seed=%d (any)" n seed) want_any got_any;
      let required =
        Phys_prop.sorted (Sort_order.asc [ List.hd q.relations ^ ".jk1" ])
      in
      let _, got_sorted = workload_cost ~shape:Workload.Chain ~n ~seed ~required in
      close (Printf.sprintf "chain n=%d seed=%d (sorted)" n seed) want_sorted got_sorted)
    golden_chain

let test_golden_star () =
  List.iter
    (fun (n, want) ->
      let _, got =
        workload_cost ~shape:Workload.Star ~n ~seed:(100 + n) ~required:Phys_prop.any
      in
      close (Printf.sprintf "star n=%d" n) want got)
    golden_star

(* ------------------------------------------------------------------ *)
(* Failure caching through the task counters                           *)
(* ------------------------------------------------------------------ *)

let catalog = Helpers.small_catalog ()

let join_query =
  Expr.(Logical.join (col "r.a" =% col "s.a") (Logical.get "r") (Logical.get "s"))

let test_failed_goal_cached_no_new_tasks () =
  (* Optimize under an impossible cost limit; the root goal is recorded
     as a failure. Re-optimizing the same goal in the same session must
     be answered from the winner table: one Optimize_group task that
     hits the memo, and no exploration, move generation, or pursuit. *)
  let request =
    {
      (Relmodel.Optimizer.request catalog) with
      limit = Some (Cost.make ~io:0. ~cpu:1e-12);
      restore_columns = false;
    }
  in
  let session = Relmodel.Optimizer.session request in
  let first = Relmodel.Optimizer.optimize_in session join_query ~required:Phys_prop.any in
  Alcotest.(check bool) "first attempt fails" true (first.plan = None);
  let s = first.stats in
  let open Volcano.Search_stats in
  let snap () =
    ( s.goals,
      s.tasks,
      tasks_of_kind s Apply_transform,
      tasks_of_kind s Optimize_mexpr,
      tasks_of_kind s Optimize_inputs,
      tasks_of_kind s Apply_enforcer )
  in
  let goals0, tasks0, tr0, mx0, inp0, enf0 = snap () in
  let hits0 = s.goal_hits in
  let second = Relmodel.Optimizer.optimize_in session join_query ~required:Phys_prop.any in
  Alcotest.(check bool) "second attempt fails too" true (second.plan = None);
  let goals1, tasks1, tr1, mx1, inp1, enf1 = snap () in
  Alcotest.(check int) "no new real optimizations" goals0 goals1;
  Alcotest.(check int) "no new transform tasks" tr0 tr1;
  Alcotest.(check int) "no new move-generation tasks" mx0 mx1;
  Alcotest.(check int) "no new input-optimization tasks" inp0 inp1;
  Alcotest.(check int) "no new enforcer tasks" enf0 enf1;
  Alcotest.(check int) "answered by one memo-consulting task" 1 (tasks1 - tasks0);
  Alcotest.(check int) "counted as a winner-table hit" (hits0 + 1) s.goal_hits

(* ------------------------------------------------------------------ *)
(* Anytime behavior under step budgets                                 *)
(* ------------------------------------------------------------------ *)

let three_way_join =
  Expr.(
    Logical.join
      (col "s.c" =% col "t.c")
      (Logical.join (col "r.a" =% col "s.a") (Logical.get "r") (Logical.get "s"))
      (Logical.get "t"))

let test_anytime_budget_sweep () =
  let optimize ?max_tasks:(mt = None) () =
    let request =
      {
        (Relmodel.Optimizer.request catalog) with
        max_tasks = mt;
        restore_columns = false;
      }
    in
    Relmodel.Optimizer.optimize request three_way_join ~required:Phys_prop.any
  in
  let exhaustive = optimize () in
  Alcotest.(check bool) "exhaustive run is complete" true exhaustive.complete;
  let optimum =
    match exhaustive.plan with
    | Some p -> Cost.total p.cost
    | None -> Alcotest.fail "exhaustive optimization failed"
  in
  let total_tasks = exhaustive.tasks_run in
  let partial_with_plan = ref 0 in
  let budget = ref 1 in
  while !budget < total_tasks do
    let r = optimize ~max_tasks:(Some !budget) () in
    Alcotest.(check bool)
      (Printf.sprintf "budget %d marked incomplete" !budget)
      false r.complete;
    Alcotest.(check bool)
      (Printf.sprintf "budget %d respected" !budget)
      true
      (r.tasks_run <= !budget);
    (match r.plan with
     | None -> ()
     | Some p ->
       incr partial_with_plan;
       (* An anytime plan is valid but possibly suboptimal: never
          cheaper than the exhaustive optimum. *)
       Alcotest.(check bool)
         (Printf.sprintf "budget %d anytime cost >= optimum" !budget)
         true
         (Cost.total p.cost >= optimum -. 1e-9));
    budget := !budget + 7
  done;
  Alcotest.(check bool) "some partial budget already yields a plan" true
    (!partial_with_plan > 0);
  let exact = optimize ~max_tasks:(Some total_tasks) () in
  match exact.plan with
  | None -> Alcotest.fail "full-budget run lost the plan"
  | Some p -> close "full budget returns the optimum" optimum (Cost.total p.cost)

(* ------------------------------------------------------------------ *)
(* Resumability at the engine level                                    *)
(* ------------------------------------------------------------------ *)

module M = (val Relmodel.Rel_model.make ~catalog ())
module S = Volcano.Search.Make (M)

let test_resume_equivalence () =
  (* Drive one run in many small budget slices; the final plan must be
     cost-identical to a fresh exhaustive run, with no work redone. *)
  let tree = Relmodel.Rel_model.to_tree three_way_join in
  let fresh = S.create () in
  let fresh_outcome = S.optimize fresh tree ~required:Phys_prop.any in
  let optimum =
    match fresh_outcome.plan with
    | Some p -> Cost.total p.cost
    | None -> Alcotest.fail "fresh exhaustive run failed"
  in
  let sliced = S.create () in
  let run = S.start sliced tree ~required:Phys_prop.any in
  let pauses = ref 0 in
  let slice = 13 in
  let rec drive budget =
    match S.resume ~budget:(S.budget ~max_tasks:budget ()) run with
    | S.Complete -> ()
    | S.Paused S.Task_budget ->
      incr pauses;
      (* Anytime plans only improve as the budget grows. *)
      (match S.best_so_far run with
       | None -> ()
       | Some p -> Alcotest.(check bool) "anytime >= optimum" true
                     (Cost.total p.cost >= optimum -. 1e-9));
      drive (budget + slice)
    | S.Paused S.Time_budget -> Alcotest.fail "unexpected time pause"
  in
  drive slice;
  Alcotest.(check bool) "search actually paused along the way" true (!pauses > 10);
  let outcome = S.outcome_of run in
  Alcotest.(check bool) "resumed run is complete" true (outcome.status = S.Complete);
  (match outcome.plan with
   | None -> Alcotest.fail "resumed run found no plan"
   | Some p -> close "resumed = fresh exhaustive" optimum (Cost.total p.cost));
  (* Work was never redone: same number of real goal optimizations. *)
  Alcotest.(check int) "same goals as fresh run" (S.stats fresh).goals
    (S.stats sliced).goals;
  Alcotest.(check int) "same plans costed as fresh run" (S.stats fresh).plans_costed
    (S.stats sliced).plans_costed

let test_resume_after_complete_is_noop () =
  let tree = Relmodel.Rel_model.to_tree join_query in
  let t = S.create () in
  let run = S.start t tree ~required:Phys_prop.any in
  Alcotest.(check bool) "completes" true (S.resume run = S.Complete);
  let tasks = (S.stats t).tasks in
  Alcotest.(check bool) "still complete" true (S.resume run = S.Complete);
  Alcotest.(check int) "no further tasks" tasks (S.stats t).tasks

(* A wall-clock budget of zero pauses the run before its first task:
   no plan, no work, and a "time-budget" post-mortem. The paused run
   then resumes under no budget to the exact plan of an unbudgeted
   optimization. *)
let test_time_budget_pause_and_resume () =
  let request =
    {
      (Relmodel.Optimizer.request catalog) with
      max_millis = Some 0.;
      restore_columns = false;
    }
  in
  let r = Relmodel.Optimizer.optimize request three_way_join ~required:Phys_prop.any in
  Alcotest.(check bool) "incomplete" false r.complete;
  Alcotest.(check int) "no task ran" 0 r.tasks_run;
  Alcotest.(check bool) "no plan" true (r.plan = None);
  let render (o : S.outcome) =
    match o.plan with
    | None -> "NONE"
    | Some p -> Format.asprintf "%a|%.17g" S.pp_plan p (Cost.total p.cost)
  in
  let tree = Relmodel.Rel_model.to_tree three_way_join in
  let recorder = Obs.Flight_recorder.create ~capacity:64 () in
  let t = S.create ~config:{ S.default_config with recorder = Some recorder } () in
  let run = S.start t tree ~required:Phys_prop.any in
  Alcotest.(check bool) "paused on the wall clock" true
    (S.resume ~budget:(S.budget ~max_millis:0. ()) run = S.Paused S.Time_budget);
  Alcotest.(check int) "paused before any task" 0 (S.outcome_of run).tasks_run;
  Alcotest.(check string) "recorder names the budget" "time-budget"
    (Obs.Flight_recorder.last_reason recorder);
  Alcotest.(check bool) "resumes to completion" true
    (S.resume ~budget:S.unlimited run = S.Complete);
  let fresh = S.optimize (S.create ()) tree ~required:Phys_prop.any in
  Alcotest.(check bool) "unbudgeted run finds a plan" true (fresh.plan <> None);
  Alcotest.(check string) "resumed plan = unbudgeted plan" (render fresh)
    (render (S.outcome_of run))

(* ------------------------------------------------------------------ *)
(* Tracing and scheduler counters                                      *)
(* ------------------------------------------------------------------ *)

let test_trace_spans_and_counters () =
  let tracer = Obs.Trace.create () in
  let config = { S.default_config with tracer = Some tracer } in
  let t = S.create ~config () in
  let outcome =
    S.optimize t (Relmodel.Rel_model.to_tree three_way_join) ~required:Phys_prop.any
  in
  Alcotest.(check bool) "plan found" true (outcome.plan <> None);
  let s = S.stats t in
  let spans = Obs.Trace.spans tracer in
  let task_spans =
    List.filter (fun (sp : Obs.Trace.span) -> sp.sp_cat = "task") spans
  in
  Alcotest.(check int) "one task span per task" s.tasks (List.length task_spans);
  let open Volcano.Search_stats in
  Alcotest.(check int) "per-kind counters sum to the total" s.tasks
    (List.fold_left (fun acc k -> acc + tasks_of_kind s k) 0 task_kinds);
  List.iter
    (fun k ->
      let n =
        List.length
          (List.filter
             (fun (sp : Obs.Trace.span) -> sp.sp_name = task_kind_name k)
             task_spans)
      in
      Alcotest.(check int)
        (Printf.sprintf "task-span count for %s matches its counter" (task_kind_name k))
        (tasks_of_kind s k) n;
      Alcotest.(check bool)
        (Printf.sprintf "task kind %s exercised" (task_kind_name k))
        true
        (tasks_of_kind s k > 0))
    task_kinds;
  Alcotest.(check bool) "stack high-water mark recorded" true (s.stack_hwm > 1);
  (* A completed sequential run leaves no span open. *)
  Alcotest.(check int) "every span closed" (Obs.Trace.total tracer)
    (Obs.Trace.closed tracer);
  (* [spans] is start-ordered. *)
  let starts = List.map (fun (sp : Obs.Trace.span) -> sp.sp_start) spans in
  Alcotest.(check bool) "spans are start-ordered" true
    (List.sort compare starts = starts)

let suite =
  [
    Alcotest.test_case "golden chain costs vs recursive engine" `Slow test_golden_chain;
    Alcotest.test_case "golden star costs vs recursive engine" `Quick test_golden_star;
    Alcotest.test_case "failed goal answered from memo, zero new tasks" `Quick
      test_failed_goal_cached_no_new_tasks;
    Alcotest.test_case "anytime plans under a step-budget sweep" `Quick
      test_anytime_budget_sweep;
    Alcotest.test_case "paused-and-resumed run matches fresh exhaustive" `Quick
      test_resume_equivalence;
    Alcotest.test_case "resume after completion is a no-op" `Quick
      test_resume_after_complete_is_noop;
    Alcotest.test_case "wall-clock budget pauses and resumes" `Quick
      test_time_budget_pause_and_resume;
    Alcotest.test_case "span tracing matches the task counters" `Quick
      test_trace_spans_and_counters;
  ]
