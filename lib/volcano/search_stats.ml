type task_kind =
  | Optimize_group
  | Explore_group
  | Optimize_mexpr
  | Apply_transform
  | Optimize_inputs
  | Apply_enforcer

let task_kinds =
  [
    Optimize_group;
    Explore_group;
    Optimize_mexpr;
    Apply_transform;
    Optimize_inputs;
    Apply_enforcer;
  ]

let task_kind_index = function
  | Optimize_group -> 0
  | Explore_group -> 1
  | Optimize_mexpr -> 2
  | Apply_transform -> 3
  | Optimize_inputs -> 4
  | Apply_enforcer -> 5

let task_kind_name = function
  | Optimize_group -> "optimize-group"
  | Explore_group -> "explore-group"
  | Optimize_mexpr -> "optimize-mexpr"
  | Apply_transform -> "apply-transform"
  | Optimize_inputs -> "optimize-inputs"
  | Apply_enforcer -> "apply-enforcer"

type t = {
  mutable goals : int;
  mutable goal_hits : int;
  mutable goal_misses : int;
  mutable groups_created : int;
  mutable mexprs_created : int;
  mutable rule_firings : int;
  mutable plans_costed : int;
  mutable enforcer_moves : int;
  mutable failures : int;
  mutable pruned : int;
  mutable merges : int;
  mutable tasks : int;
  tasks_by_kind : int array;  (** indexed by [task_kind_index] *)
  mutable stack_hwm : int;
  mutable goals_pruned_lb : int;
  mutable input_limits_tightened : int;
  mutable memo_fastpath_hits : int;
  mutable promise_evals : int;
  mutable anytime_improvements : int;
}

let create () =
  {
    goals = 0;
    goal_hits = 0;
    goal_misses = 0;
    groups_created = 0;
    mexprs_created = 0;
    rule_firings = 0;
    plans_costed = 0;
    enforcer_moves = 0;
    failures = 0;
    pruned = 0;
    merges = 0;
    tasks = 0;
    tasks_by_kind = Array.make (List.length task_kinds) 0;
    stack_hwm = 0;
    goals_pruned_lb = 0;
    input_limits_tightened = 0;
    memo_fastpath_hits = 0;
    promise_evals = 0;
    anytime_improvements = 0;
  }

(* The counter table: every counter once, with its metric-name suffix
   and how to read and write it, in display order. [reset], [copy],
   [merge], [diff], [pp], [register] and [metric_names] are loops over
   it. A peak (the stack high-water mark) merges by max and keeps its
   latest value in a diff; every other counter sums. *)
type counter = {
  suffix : string;
  get : t -> int;
  set : t -> int -> unit;
  peak : bool;
}

let sum suffix get set = { suffix; get; set; peak = false }

let peak suffix get set = { suffix; get; set; peak = true }

let scalars =
  [
    sum "goals" (fun t -> t.goals) (fun t v -> t.goals <- v);
    sum "goal_hits" (fun t -> t.goal_hits) (fun t v -> t.goal_hits <- v);
    sum "goal_misses" (fun t -> t.goal_misses) (fun t v -> t.goal_misses <- v);
    sum "groups_created" (fun t -> t.groups_created) (fun t v -> t.groups_created <- v);
    sum "mexprs_created" (fun t -> t.mexprs_created) (fun t v -> t.mexprs_created <- v);
    sum "rule_firings" (fun t -> t.rule_firings) (fun t v -> t.rule_firings <- v);
    sum "plans_costed" (fun t -> t.plans_costed) (fun t v -> t.plans_costed <- v);
    sum "enforcer_moves" (fun t -> t.enforcer_moves) (fun t v -> t.enforcer_moves <- v);
    sum "failures" (fun t -> t.failures) (fun t v -> t.failures <- v);
    sum "pruned" (fun t -> t.pruned) (fun t v -> t.pruned <- v);
    sum "merges" (fun t -> t.merges) (fun t v -> t.merges <- v);
    sum "tasks_total" (fun t -> t.tasks) (fun t v -> t.tasks <- v);
    peak "stack_hwm" (fun t -> t.stack_hwm) (fun t v -> t.stack_hwm <- v);
    sum "goals_pruned_lb" (fun t -> t.goals_pruned_lb) (fun t v -> t.goals_pruned_lb <- v);
    sum "input_limits_tightened" (fun t -> t.input_limits_tightened) (fun t v ->
        t.input_limits_tightened <- v);
    sum "memo_fastpath_hits" (fun t -> t.memo_fastpath_hits) (fun t v ->
        t.memo_fastpath_hits <- v);
    sum "promise_evals" (fun t -> t.promise_evals) (fun t v -> t.promise_evals <- v);
    sum "anytime_improvements" (fun t -> t.anytime_improvements) (fun t v ->
        t.anytime_improvements <- v);
  ]

let per_kind =
  List.map
    (fun k ->
      let i = task_kind_index k in
      let name = String.map (fun c -> if c = '-' then '_' else c) (task_kind_name k) in
      sum ("tasks_" ^ name) (fun t -> t.tasks_by_kind.(i)) (fun t v -> t.tasks_by_kind.(i) <- v))
    task_kinds

let table = scalars @ per_kind

let reset t = List.iter (fun c -> c.set t 0) table

let merge ~into t =
  List.iter
    (fun c ->
      let a = c.get into and b = c.get t in
      c.set into (if c.peak then max a b else a + b))
    table

let diff ~since t =
  let d = create () in
  List.iter (fun c -> c.set d (if c.peak then c.get t else c.get t - c.get since)) table;
  d

let copy t = diff ~since:(create ()) t

let count_task t kind =
  t.tasks <- t.tasks + 1;
  let i = task_kind_index kind in
  t.tasks_by_kind.(i) <- t.tasks_by_kind.(i) + 1

let tasks_of_kind t kind = t.tasks_by_kind.(task_kind_index kind)

let note_stack_depth t depth = if depth > t.stack_hwm then t.stack_hwm <- depth

let pp ppf t =
  Format.pp_print_string ppf
    (String.concat " " (List.map (fun c -> Printf.sprintf "%s=%d" c.suffix (c.get t)) scalars))

let pp_tasks ppf t =
  Format.fprintf ppf "tasks=%d (%s) hwm=%d" t.tasks
    (String.concat ", "
       (List.map
          (fun k -> Printf.sprintf "%s=%d" (task_kind_name k) (tasks_of_kind t k))
          task_kinds))
    t.stack_hwm

let metric_names prefix = List.map (fun c -> prefix ^ c.suffix) table

let register reg t =
  List.iter
    (fun c ->
      Obs.Metrics.gauge reg ("volcano_search_" ^ c.suffix) (fun () -> float_of_int (c.get t)))
    table
