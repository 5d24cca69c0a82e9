(* Tests of guided pruning: group cost lower bounds must never change
   the outcome — only how much work finds it. Every configuration arm
   (no pruning, plain Figure-2, Figure 2 + guided) must produce a
   bit-identical winning plan and cost; the bound itself must sit at or
   below every winner the search records. *)

open Relalg

(* Render a result so that any difference — operator choice, property
   vectors, per-node costs down to the last bit — breaks equality. *)
let render (result : Relmodel.Optimizer.result) =
  match result.plan with
  | None -> "NONE"
  | Some p ->
    Printf.sprintf "%s|%.17g" (Relmodel.Optimizer.explain p) (Cost.total p.cost)

let optimize_arm ~pruning ~guided (q : Workload.query) required =
  let request =
    {
      (Relmodel.Optimizer.request q.catalog) with
      restore_columns = false;
      pruning;
      guided_pruning = guided;
    }
  in
  Relmodel.Optimizer.optimize request q.logical ~required

let requireds (q : Workload.query) =
  [
    ("any", Phys_prop.any);
    ("sorted", Phys_prop.sorted (Sort_order.asc [ List.hd q.relations ^ ".jk1" ]));
  ]

(* ------------------------------------------------------------------ *)
(* Goldens: the guided counters actually fire, and never mislead       *)
(* ------------------------------------------------------------------ *)

let test_counters_fire () =
  let q = Workload.generate (Workload.spec ~shape:Workload.Star ~n_relations:4 ~seed:104 ()) in
  let r = optimize_arm ~pruning:true ~guided:true q Phys_prop.any in
  Alcotest.(check bool) "found a plan" true (r.plan <> None);
  Alcotest.(check bool) "goals pruned on lower bounds" true
    (r.stats.goals_pruned_lb > 0);
  Alcotest.(check bool) "input limits tightened" true
    (r.stats.input_limits_tightened > 0);
  Alcotest.(check bool) "memo fast path hit" true (r.stats.memo_fastpath_hits > 0)

let test_counters_inert_without_guided () =
  let q = Workload.generate (Workload.spec ~shape:Workload.Star ~n_relations:4 ~seed:104 ()) in
  List.iter
    (fun (pruning, guided) ->
      let r = optimize_arm ~pruning ~guided q Phys_prop.any in
      Alcotest.(check int) "no lower-bound pruning" 0 r.stats.goals_pruned_lb;
      Alcotest.(check int) "no tightened limits" 0 r.stats.input_limits_tightened)
    [ (false, false); (true, false); (false, true) ]

let test_guided_reduces_tasks () =
  let q = Workload.generate (Workload.spec ~shape:Workload.Star ~n_relations:5 ~seed:105 ()) in
  let f2 = optimize_arm ~pruning:true ~guided:false q Phys_prop.any in
  let guided = optimize_arm ~pruning:true ~guided:true q Phys_prop.any in
  Alcotest.(check string) "same plan" (render f2) (render guided);
  Alcotest.(check bool)
    (Printf.sprintf "fewer tasks (figure2 %d, guided %d)" f2.stats.tasks
       guided.stats.tasks)
    true
    (guided.stats.tasks < f2.stats.tasks)

(* Exact-cost-tie reproducers: workloads where two moves complete at
   the same cost, so the plan kept depends on the order moves are
   pursued in. Every arm must keep the same one — no pruning, plain
   Figure 2, and guided. *)
let tie_cases =
  [
    (Workload.Chain, 2, 313);
    (Workload.Chain, 3, 750);
    (Workload.Chain, 3, 973);
    (Workload.Star, 2, 313);
    (Workload.Star, 3, 82);
    (Workload.Star, 3, 781);
  ]

let test_tie_goldens () =
  List.iter
    (fun (shape, n, seed) ->
      let q = Workload.generate (Workload.spec ~shape ~n_relations:n ~seed ()) in
      let base = render (optimize_arm ~pruning:false ~guided:false q Phys_prop.any) in
      List.iter
        (fun (arm, pruning, guided) ->
          Alcotest.(check string)
            (Printf.sprintf "%s n=%d seed=%d: %s = no pruning"
               (match shape with Workload.Chain -> "chain" | _ -> "star")
               n seed arm)
            base
            (render (optimize_arm ~pruning ~guided q Phys_prop.any)))
        [ ("no-pruning", false, false); ("figure2", true, false); ("guided", true, true) ])
    tie_cases

(* ------------------------------------------------------------------ *)
(* Bound soundness: the cached bound never exceeds a recorded winner   *)
(* ------------------------------------------------------------------ *)

(* Optimize, then sweep the memo: for every goal with a winning plan,
   the model's lower bound for that (group, required) must be <= the
   plan's cost. A violation is exactly the condition under which guided
   pruning could kill the optimum. *)
let test_bound_below_every_winner () =
  List.iter
    (fun (shape, n, seed) ->
      let q = Workload.generate (Workload.spec ~shape ~n_relations:n ~seed ()) in
      let module M = (val Relmodel.Rel_model.make ~catalog:q.catalog ()) in
      let module S = Volcano.Search.Make (M) in
      let s = S.create () in
      List.iter
        (fun (rname, required) ->
          ignore
            (S.optimize s (M.to_tree q.logical) ~required : S.outcome);
          let checked = ref 0 in
          for g = 0 to S.Memo.n_groups s.S.memo - 1 do
            if S.Memo.find_root s.S.memo g = g then
              List.iter
                (fun (((req, _) : S.Memo.Goal_key.t), (w : S.Memo.winner)) ->
                  match w.S.Memo.w_plan with
                  | None -> ()
                  | Some p ->
                    incr checked;
                    let lb = S.Memo.lower_bound s.S.memo g req in
                    Alcotest.(check bool)
                      (Printf.sprintf "%s n=%d %s group %d: bound %s <= winner %s"
                         (match shape with Workload.Chain -> "chain" | _ -> "star")
                         n rname g (Cost.to_string lb)
                         (Cost.to_string p.S.Memo.p_cost))
                      true
                      (Cost.compare lb p.S.Memo.p_cost <= 0))
                (S.Memo.winners_alist s.S.memo g)
          done;
          Alcotest.(check bool) "some winners checked" true (!checked > 0))
        (requireds q))
    [ (Workload.Chain, 4, 23); (Workload.Star, 4, 104); (Workload.Star, 5, 105) ]

(* ------------------------------------------------------------------ *)
(* Property: every arm agrees                                          *)
(* ------------------------------------------------------------------ *)

let prop_arms_agree =
  let gen =
    QCheck.Gen.(
      quad (oneofl [ Workload.Chain; Workload.Star ]) (int_range 2 5) (int_range 0 999)
        (oneofl [ false; true ]))
  in
  Helpers.qcheck_case ~count:30 "pruning arms agree on plan and cost"
    (QCheck.make gen) (fun (shape, n, seed, sorted) ->
      let q = Workload.generate (Workload.spec ~shape ~n_relations:n ~seed ()) in
      let required =
        if sorted then Phys_prop.sorted (Sort_order.asc [ List.hd q.relations ^ ".jk1" ])
        else Phys_prop.any
      in
      let base = render (optimize_arm ~pruning:false ~guided:false q required) in
      render (optimize_arm ~pruning:true ~guided:false q required) = base
      && render (optimize_arm ~pruning:true ~guided:true q required) = base)

let suite =
  [
    Alcotest.test_case "guided counters fire" `Quick test_counters_fire;
    Alcotest.test_case "counters inert without guided" `Quick
      test_counters_inert_without_guided;
    Alcotest.test_case "guided reduces tasks, keeps the plan" `Quick
      test_guided_reduces_tasks;
    Alcotest.test_case "lower bound below every winner" `Quick
      test_bound_below_every_winner;
    prop_arms_agree;
    Alcotest.test_case "tie goldens agree across arms" `Quick test_tie_goldens;
  ]
