type plan_node = {
  alg : Relalg.Physical.alg;
  children : plan_node list;
  props : Relalg.Phys_prop.t;
  cost : Relalg.Cost.t;
}

type result = {
  plan : plan_node option;
  complete : bool;
  tasks_run : int;
  stats : Volcano.Search_stats.t;
  memo_groups : int;
  memo_mexprs : int;
  explain : string option;
}

type request = {
  catalog : Catalog.t;
  params : Relalg.Cost_model.params;
  flags : Rel_model.flags;
  pruning : bool;
  guided_pruning : bool;
  max_moves : int option;
  limit : Relalg.Cost.t option;
  max_tasks : int option;
  max_millis : float option;
  tracer : Obs.Trace.t option;
  profiler : Obs.Profile.t option;
  recorder : Obs.Flight_recorder.t option;
  explain : bool;
  restore_columns : bool;
}

let request catalog =
  {
    catalog;
    params = Relalg.Cost_model.default;
    flags = Rel_model.default_flags;
    pruning = true;
    guided_pruning = true;
    max_moves = None;
    limit = None;
    max_tasks = None;
    max_millis = None;
    tracer = None;
    profiler = None;
    recorder = None;
    explain = false;
    restore_columns = true;
  }

let rec to_physical_raw (p : plan_node) : Relalg.Physical.plan =
  Relalg.Physical.mk p.alg (List.map to_physical_raw p.children)

(* Join commutativity can leave the winning plan's columns in a
   different order than the query's logical schema; restore the
   logical order with a (free at this scale) final projection. *)
let restore_column_order req (query : Relalg.Logical_props.t) (p : plan_node) : plan_node =
  let logical_names = Relalg.Schema.names query.schema in
  let physical_names =
    Relalg.Schema.names (Catalog.plan_schema req.catalog (to_physical_raw p))
  in
  if List.equal String.equal logical_names physical_names then p
  else
    {
      alg = Relalg.Physical.Project_cols logical_names;
      children = [ p ];
      props = p.props;
      cost = p.cost;
    }

(* The search a request configures, written once for sessions and
   anytime ladders: the searcher, a run of one query on it, and the
   run's result. *)
module Searcher (M : Rel_model.REL_MODEL) = struct
  module S = Volcano.Search.Make (M)

  let to_tree = M.to_tree

  let create req =
    let config =
      {
        S.pruning = req.pruning;
        guided = req.guided_pruning;
        max_moves = req.max_moves;
        budget = S.budget ?max_tasks:req.max_tasks ?max_millis:req.max_millis ();
        tracer = req.tracer;
        explain = req.explain;
        profiler = req.profiler;
        recorder = req.recorder;
      }
    in
    S.create ~config ()

  let start req opt query required =
    let limit = Option.value req.limit ~default:Relalg.Cost.infinite in
    S.start ~limit opt query ~required

  let rec convert (p : S.plan_tree) : plan_node =
    { alg = p.alg; children = List.map convert p.children; props = p.props; cost = p.cost }

  (* The logical properties of the query, an interned tree. *)
  let rec derive query =
    M.derive (Volcano.Tree.op query) (List.map derive (Volcano.Tree.inputs query))

  (* With the request's [explain] on, render the provenance of the
     returned plan (the winner, or a paused run's best-so-far) straight
     from the memo, so it reflects the plan the search chose, before any
     column-restoring projection. *)
  let result req query (run : S.run) : result =
    let out = S.outcome_of run in
    let finish p =
      if req.restore_columns then restore_column_order req (derive query) (convert p)
      else convert p
    in
    {
      plan = Option.map finish out.plan;
      complete = (out.status = S.Complete);
      tasks_run = out.tasks_run;
      stats = out.search_stats;
      memo_groups = out.memo_groups;
      memo_mexprs = out.memo_mexprs;
      explain =
        (if req.explain then
           Option.map (fun x -> Format.asprintf "%a" S.pp_explain x) (S.explain_run run)
         else None);
    }
end

let model req = Rel_model.make ~catalog:req.catalog ~params:req.params ~flags:req.flags ()

let make_searcher req =
  let module X = Searcher ((val model req)) in
  let opt = X.create req in
  let run query required =
    let query = X.to_tree query in
    let r = X.start req opt query required in
    ignore (X.S.resume r : X.S.status);
    X.result req query r
  in
  (run, X.S.stats opt)

let optimize req (query : Relalg.Logical.expr) ~required : result =
  (fst (make_searcher req)) query required

(* ---------------------------------------------------------------- *)
(* Anytime ladder: one search, observed at a ladder of task budgets  *)
(* ---------------------------------------------------------------- *)

type anytime_point = {
  at_budget : int;  (** cumulative task budget of this rung *)
  at_tasks : int;  (** tasks actually executed when the rung was read *)
  at_cost : Relalg.Cost.t option;  (** best-so-far plan cost, if any *)
  at_complete : bool;  (** the search finished within this rung's budget *)
}

type anytime = {
  an_points : anytime_point list;  (** one per requested budget, ascending *)
  an_incumbents : (int * Relalg.Cost.t) list;
      (** [(tasks, cost)] at every strict root-incumbent improvement *)
  an_result : result;  (** the state after the last rung *)
  an_goal_footprint : int * int;  (** (allocated, occupied) goal slots *)
}

(* Run ONE sequential search, pausing it at each cumulative task budget
   of [budgets] to record the best-so-far cost — the plan-cost-vs-budget
   curve of the run. Budgets are cumulative (the engine's resume
   semantics), so the whole ladder costs only the largest budget. Every
   rung passes its budget, so the request's own budget is never read. *)
let optimize_anytime req ~budgets (query : Relalg.Logical.expr) ~required : anytime =
  let module X = Searcher ((val model req)) in
  let opt = X.create req in
  let query = X.to_tree query in
  let run = X.start req opt query required in
  let rung b =
    let status = X.S.resume ~budget:(X.S.budget ~max_tasks:b ()) run in
    {
      at_budget = b;
      at_tasks = run.X.S.r_tasks;
      at_cost = Option.map (fun (p : X.S.plan_tree) -> p.cost) (X.S.best_so_far run);
      at_complete = (status = X.S.Complete);
    }
  in
  let points = List.map rung (List.sort_uniq compare budgets) in
  {
    an_points = points;
    an_incumbents = X.S.incumbents run;
    an_result = X.result req query run;
    an_goal_footprint = X.S.Memo.goal_footprint opt.X.S.memo;
  }

let to_physical = to_physical_raw

let plan_cost (p : plan_node) = p.cost

let pp_plan ppf p =
  let rec go depth node =
    Format.fprintf ppf "%s%s  [%s; cost %s]" (String.make depth ' ')
      (Relalg.Physical.alg_name node.alg)
      (Relalg.Phys_prop.to_string node.props)
      (Relalg.Cost.to_string node.cost);
    List.iter
      (fun c ->
        Format.pp_print_newline ppf ();
        go (depth + 2) c)
      node.children
  in
  go 0 p

let explain p = Format.asprintf "%a" pp_plan p

type session = {
  run : Relalg.Logical.expr -> Relalg.Phys_prop.t -> result;
  stats : Volcano.Search_stats.t;
  req : request;
}

let session req =
  let run, stats = make_searcher req in
  { run; stats; req }

let optimize_in s query ~required = s.run query required

let session_stats s = s.stats
