(* Tests of optimizer sessions: one memo living across queries
   ("longer-lived partial results", paper §3). *)

open Relalg

let catalog = Helpers.small_catalog ()

let request = { (Relmodel.Optimizer.request catalog) with restore_columns = false }

let join_rs =
  Expr.(Logical.join (col "r.a" =% col "s.a") (Logical.get "r") (Logical.get "s"))

let join_rst =
  Expr.(Logical.join (col "s.c" =% col "t.c") join_rs (Logical.get "t"))

let test_session_matches_fresh () =
  let s = Relmodel.Optimizer.session request in
  List.iter
    (fun q ->
      let fresh = Relmodel.Optimizer.optimize request q ~required:Phys_prop.any in
      let shared = Relmodel.Optimizer.optimize_in s q ~required:Phys_prop.any in
      match fresh.plan, shared.plan with
      | Some f, Some sh ->
        Alcotest.(check (float 1e-9)) "same optimal cost" (Cost.total f.cost)
          (Cost.total sh.cost)
      | _, _ -> Alcotest.fail "missing plan")
    [ Logical.get "r"; join_rs; join_rst ]

let test_session_reuses_memo () =
  let s = Relmodel.Optimizer.session request in
  let first = Relmodel.Optimizer.optimize_in s join_rst ~required:Phys_prop.any in
  let goals_after_first = first.stats.goals in
  (* The subquery was fully explored as part of the larger query: its
     optimization should be answered (almost) entirely from the memo. *)
  let second = Relmodel.Optimizer.optimize_in s join_rs ~required:Phys_prop.any in
  let new_goals = second.stats.goals - goals_after_first in
  (* Only the subquery's own top-level goal (its property vector was
     never requested at the root before) needs work; everything below
     is answered from the winner tables — up to a goal or two that the
     first run concluded as a failure under a branch-and-bound limit
     tighter than the second run's (the paper's "increasingly generous
     cost limits" re-optimization covers them). *)
  Alcotest.(check bool)
    (Printf.sprintf "subquery nearly free (%d new goals)" new_goals)
    true
    (new_goals <= 3);
  Alcotest.(check bool) "and still yields a plan" true (second.plan <> None)

let test_session_new_requirements_extend () =
  let s = Relmodel.Optimizer.session request in
  ignore (Relmodel.Optimizer.optimize_in s join_rs ~required:Phys_prop.any);
  (* A stronger requirement on the same expression needs new goals but
     must still succeed. *)
  let ordered =
    Relmodel.Optimizer.optimize_in s join_rs
      ~required:(Phys_prop.sorted (Sort_order.asc [ "r.a" ]))
  in
  match ordered.plan with
  | Some p ->
    Alcotest.(check bool) "ordered plan found in session" true
      (Phys_prop.covers ~provided:p.props
         ~required:(Phys_prop.sorted (Sort_order.asc [ "r.a" ])))
  | None -> Alcotest.fail "no ordered plan"

let test_session_results_correct () =
  let s = Relmodel.Optimizer.session request in
  ignore (Relmodel.Optimizer.optimize_in s join_rst ~required:Phys_prop.any);
  match (Relmodel.Optimizer.optimize_in s join_rs ~required:Phys_prop.any).plan with
  | None -> Alcotest.fail "no plan"
  | Some p ->
    let actual, _, _ = Executor.run catalog (Relmodel.Optimizer.to_physical p) in
    let expected, _ = Executor.naive catalog join_rs in
    (* Column order may differ (bare plans); compare canonically. *)
    let canon (arr : Tuple.t array) =
      Array.to_list arr
      |> List.map (fun t -> List.sort compare (List.map Value.to_string (Array.to_list t)))
      |> List.sort compare
    in
    Alcotest.(check bool) "session plan computes the right rows" true
      (canon actual = canon expected)

let suite =
  [
    Alcotest.test_case "session matches fresh optima" `Quick test_session_matches_fresh;
    Alcotest.test_case "session reuses the memo" `Quick test_session_reuses_memo;
    Alcotest.test_case "new requirements extend" `Quick test_session_new_requirements_extend;
    Alcotest.test_case "session results correct" `Quick test_session_results_correct;
  ]
