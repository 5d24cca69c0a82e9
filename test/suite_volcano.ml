(* Unit tests for the search-engine core's small pieces: operator trees,
   rule patterns and bindings, and the effort counters. *)

let node = Volcano.Tree.node

let tree = node "a" [ node "b" [ node "d" [] ]; node "c" [] ]

let test_tree_basics () =
  Alcotest.(check int) "size" 4 (Volcano.Tree.size tree);
  Alcotest.(check string) "op" "a" (Volcano.Tree.op tree);
  Alcotest.(check int) "inputs" 2 (List.length (Volcano.Tree.inputs tree));
  let upper = Volcano.Tree.map String.uppercase_ascii tree in
  Alcotest.(check string) "map" "A" (Volcano.Tree.op upper)

let test_pattern_depth () =
  let open Volcano.Rule in
  Alcotest.(check int) "any" 0 (pattern_depth Any);
  Alcotest.(check int) "node" 1 (pattern_depth (Op ((fun _ -> true), [ Any; Any ])));
  Alcotest.(check int) "nested" 2
    (pattern_depth (Op ((fun _ -> true), [ Op ((fun _ -> true), [ Any ]); Any ])))

let test_binding_helpers () =
  let open Volcano.Rule in
  let b = Node ("j", [ Group 3; Node ("j", [ Group 1; Group 2 ]) ]) in
  Alcotest.(check (list int)) "leaf groups in order" [ 3; 1; 2 ] (leaf_groups b);
  Alcotest.(check (option string)) "root op" (Some "j") (binding_op b);
  Alcotest.(check (option string)) "group has no op" None (binding_op (Group 7))

let test_stats_reset () =
  let s = Volcano.Search_stats.create () in
  s.goals <- 5;
  s.merges <- 2;
  Volcano.Search_stats.reset s;
  Alcotest.(check int) "goals cleared" 0 s.goals;
  Alcotest.(check int) "merges cleared" 0 s.merges

let test_stats_pp () =
  let s = Volcano.Search_stats.create () in
  s.goals <- 1;
  let text = Format.asprintf "%a" Volcano.Search_stats.pp s in
  Alcotest.(check bool) "mentions goals" true
    (String.length text > 0 && String.sub text 0 6 = "goals=")

(* [copy], [merge], [diff] and [reset] are loops over one counter table:
   a record with every field distinct survives each of them whole, so
   no field is missing from the table. The high-water mark is a peak. *)
let test_stats_table_complete () =
  let module S = Volcano.Search_stats in
  let s =
    {
      S.goals = 1; goal_hits = 2; goal_misses = 3; groups_created = 4; mexprs_created = 5;
      rule_firings = 6; plans_costed = 7; enforcer_moves = 8; failures = 9; pruned = 10;
      merges = 11; tasks = 12; tasks_by_kind = [| 13; 14; 15; 16; 17; 18 |];
      stack_hwm = 19; goals_pruned_lb = 20; input_limits_tightened = 21;
      memo_fastpath_hits = 22; promise_evals = 23; anytime_improvements = 24;
    }
  in
  Alcotest.(check bool) "copy keeps every field" true (S.copy s = s);
  Alcotest.(check bool) "diff from zero keeps every field" true
    (S.diff ~since:(S.create ()) s = s);
  let m = S.create () in
  S.merge ~into:m s;
  Alcotest.(check bool) "merge into zero keeps every field" true (m = s);
  S.merge ~into:m s;
  Alcotest.(check int) "merge sums" 2 m.goals;
  Alcotest.(check int) "merge sums per kind" 36 (S.tasks_of_kind m S.Apply_enforcer);
  Alcotest.(check int) "merge keeps the peak" 19 m.stack_hwm;
  Alcotest.(check int) "diff keeps the latest peak" 19 (S.diff ~since:s m).stack_hwm;
  Alcotest.(check int) "one metric per counter" 24 (List.length (S.metric_names ""));
  S.reset m;
  Alcotest.(check bool) "reset clears every field" true (m = S.create ())

let suite =
  [
    Alcotest.test_case "tree basics" `Quick test_tree_basics;
    Alcotest.test_case "pattern depth" `Quick test_pattern_depth;
    Alcotest.test_case "binding helpers" `Quick test_binding_helpers;
    Alcotest.test_case "stats reset" `Quick test_stats_reset;
    Alcotest.test_case "stats pp" `Quick test_stats_pp;
    Alcotest.test_case "stats table covers every field" `Quick test_stats_table_complete;
  ]
