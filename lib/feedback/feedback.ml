(* Runtime cardinality feedback: instrument executor cursors, diff the
   actual per-node cardinalities against the optimizer's estimates,
   correct the catalog statistics the drift incriminates, and (through
   the stats-version stamps) let cached plans invalidate themselves.
   See DESIGN.md §15 for the correction rule and escape-hatch
   semantics. *)

open Relalg
module Stats = Catalog.Stats
module Opt = Relmodel.Optimizer
module S = Volcano.Search_stats
module J = Obs.Json

(* ---------------------------------------------------------------------- *)
(* Configuration                                                           *)
(* ---------------------------------------------------------------------- *)

type config = {
  drift_threshold : float;
  escape_factor : float option;
  correct : bool;
  max_replans : int;
  recorder : Obs.Flight_recorder.t option;
}

let config ?(drift_threshold = 2.) ?escape_factor ?(correct = true) ?(max_replans = 1)
    ?recorder () =
  if drift_threshold < 1. then
    invalid_arg "Feedback.config: drift_threshold must be >= 1";
  (match escape_factor with
   | Some k when k < 1. -> invalid_arg "Feedback.config: escape_factor must be >= 1"
   | _ -> ());
  { drift_threshold; escape_factor; correct; max_replans = max 0 max_replans; recorder }

(* The escape hatch firing is exactly the abnormal end the flight
   recorder exists for: dump whatever the engine rings still hold. *)
let escape_trigger config =
  match config.recorder with
  | None -> ()
  | Some fr -> Obs.Flight_recorder.trigger fr ~reason:"feedback-escape"

let default_config = config ()

(* ---------------------------------------------------------------------- *)
(* Observations                                                            *)
(* ---------------------------------------------------------------------- *)

type node_obs = {
  path : int list;
  alg : string;
  estimated : float;
  observed : int;
  ratio : float;
  relations : string list;
  complete : bool;
}

let q_error ~estimated ~observed =
  let e = Float.max 1. estimated and o = Float.max 1. (float_of_int observed) in
  Float.max (e /. o) (o /. e)

type correction = {
  table : string;
  detail : string;
  stats_version : int;
}

type counters = {
  mutable fb_runs : int;
  mutable fb_nodes_observed : int;
  mutable fb_drift_nodes : int;
  mutable fb_corrections : int;
  mutable fb_escapes : int;
  mutable fb_replans : int;
}

let counters () =
  {
    fb_runs = 0;
    fb_nodes_observed = 0;
    fb_drift_nodes = 0;
    fb_corrections = 0;
    fb_escapes = 0;
    fb_replans = 0;
  }

(* The counters by metric-name suffix, in display order. *)
let counter_table =
  [
    ("feedback_runs", fun c -> c.fb_runs);
    ("feedback_nodes_observed", fun c -> c.fb_nodes_observed);
    ("feedback_drift_nodes", fun c -> c.fb_drift_nodes);
    ("feedback_corrections", fun c -> c.fb_corrections);
    ("feedback_escapes", fun c -> c.fb_escapes);
    ("feedback_replans", fun c -> c.fb_replans);
  ]

let add_counters ~into c =
  into.fb_runs <- into.fb_runs + c.fb_runs;
  into.fb_nodes_observed <- into.fb_nodes_observed + c.fb_nodes_observed;
  into.fb_drift_nodes <- into.fb_drift_nodes + c.fb_drift_nodes;
  into.fb_corrections <- into.fb_corrections + c.fb_corrections;
  into.fb_escapes <- into.fb_escapes + c.fb_escapes;
  into.fb_replans <- into.fb_replans + c.fb_replans

let pp_counters ppf c =
  Format.pp_print_string ppf
    (String.concat " "
       (List.map (fun (name, read) -> Printf.sprintf "%s=%d" name (read c)) counter_table))

let metric_names prefix = List.map (fun (name, _) -> prefix ^ name) counter_table

let register reg c =
  List.iter
    (fun (name, read) ->
      Obs.Metrics.gauge reg ("volcano_search_" ^ name) (fun () -> float_of_int (read c)))
    counter_table

type report = {
  nodes : node_obs list;
  drifted : node_obs list;
  threshold : float;
  corrections : correction list;
  escaped : bool;
  replans : int;
  counters : counters;
  stats : S.t;
}

(* Per-path logical properties of the believed plan: the node estimate
   is [card], the responsible base relations [relations]. Derived with
   the same estimator the search used ({!Relmodel.Plan_cost.props}), so
   the diff is against what the optimizer actually promised. *)
let estimate_table catalog plan =
  let tbl = Hashtbl.create 32 in
  let rec walk path (p : Physical.plan) =
    Hashtbl.replace tbl path (Relmodel.Plan_cost.props catalog p);
    List.iteri (fun i c -> walk (path @ [ i ]) c) p.Physical.children
  in
  walk [] plan;
  tbl

(* Per-path physical nodes, for correction attribution. *)
let plan_table plan =
  let tbl = Hashtbl.create 32 in
  let rec walk path (p : Physical.plan) =
    Hashtbl.replace tbl path p;
    List.iteri (fun i c -> walk (path @ [ i ]) c) p.Physical.children
  in
  walk [] plan;
  tbl

type run_result =
  | Complete of Tuple.t array * Schema.t * Executor.Io_stats.t * node_obs list
  | Aborted of { at : int list; nodes : node_obs list; io : Executor.Io_stats.t }

exception Escape_hatch of int list

let observed_run ?escape_factor ?estimate_plan catalog (plan : Physical.plan) =
  let believed = Option.value estimate_plan ~default:plan in
  let est = estimate_table catalog believed in
  let card path =
    match Hashtbl.find_opt est path with
    | Some (lp : Logical_props.t) -> Some lp.card
    | None -> None
  in
  let ctx = Executor.Engine.context catalog in
  let counts : (int list, int ref) Hashtbl.t = Hashtbl.create 32 in
  let completed : (int list, unit) Hashtbl.t = Hashtbl.create 32 in
  let observe ~path (_ : Physical.plan) cursor =
    let n = ref 0 in
    Hashtbl.replace counts path n;
    let at_end () = Hashtbl.replace completed path () in
    match escape_factor with
    | None -> Executor.Cursor.observed ~at_end (fun _ -> incr n) cursor
    | Some k ->
      let budget =
        match card path with
        | Some c -> int_of_float (Float.ceil (k *. Float.max 1. c))
        | None -> max_int
      in
      Executor.Cursor.observed ~at_end
        (fun _ ->
          incr n;
          if !n > budget then raise (Escape_hatch path))
        cursor
  in
  let cursor = Executor.Engine.compile_instrumented ctx ~observe plan in
  let nodes () =
    let out = ref [] in
    let rec walk path (p : Physical.plan) =
      let lp = Hashtbl.find_opt est path in
      let estimated =
        match lp with Some (lp : Logical_props.t) -> lp.card | None -> 0.
      in
      let relations =
        match lp with Some (lp : Logical_props.t) -> lp.relations | None -> []
      in
      let observed =
        match Hashtbl.find_opt counts path with Some n -> !n | None -> 0
      in
      out :=
        {
          path;
          alg = Physical.alg_name p.Physical.alg;
          estimated;
          observed;
          ratio = q_error ~estimated ~observed;
          relations;
          complete = Hashtbl.mem completed path;
        }
        :: !out;
      List.iteri (fun i c -> walk (path @ [ i ]) c) p.Physical.children
    in
    walk [] plan;
    List.rev !out
  in
  match Executor.Cursor.to_array cursor with
  | tuples ->
    Executor.Io_stats.produced ctx.Executor.Engine.io (Array.length tuples);
    Complete (tuples, cursor.Executor.Cursor.schema, ctx.Executor.Engine.io, nodes ())
  | exception Escape_hatch at -> Aborted { at; nodes = nodes (); io = ctx.Executor.Engine.io }

(* An incomplete node's count is a lower bound: drift is proven only
   when the bound already exceeds the estimate. *)
let drifted ~threshold n =
  n.ratio >= threshold
  && (n.complete || float_of_int n.observed > n.estimated)

let drift_nodes ~threshold nodes = List.filter (drifted ~threshold) nodes

(* ---------------------------------------------------------------------- *)
(* Corrections                                                             *)
(* ---------------------------------------------------------------------- *)

(* Pending changes to one table's statistics, accumulated over the
   drifted nodes before a single [Catalog.update_stats] installs them
   (one stats-version bump per corrected table). *)
type col_fix =
  | Fix_distinct of float
  | Fix_lo of float
  | Fix_hi of float

type table_fix = {
  mutable row : float option;
  mutable cols : (string * col_fix) list;
  mutable why : string list;
}

(* [Cmp (op, Col c, Const v)] modulo argument order. *)
let normalize_cmp e =
  let flip = function
    | Expr.Lt -> Expr.Gt
    | Expr.Le -> Expr.Ge
    | Expr.Gt -> Expr.Lt
    | Expr.Ge -> Expr.Le
    | (Expr.Eq | Expr.Ne) as o -> o
  in
  match e with
  | Expr.Cmp (op, Expr.Col c, (Expr.Const _ as k)) -> Some (op, c, k)
  | Expr.Cmp (op, (Expr.Const _ as k), Expr.Col c) -> Some (flip op, c, k)
  | _ -> None

let clamp_sel s = Float.max 1e-4 (Float.min 1. s)

(* Make the estimator reproduce the observed selectivity of [pred] over
   the base table: solve each correctable single-column conjunct for the
   statistic the estimator reads — distinct count for equality (System R
   1/d), range endpoint for inequalities (linear interpolation). The
   residual selectivity of uncorrectable conjuncts is divided out first;
   with several correctable conjuncts the miss is apportioned evenly in
   the geometric mean. *)
let predicate_fixes props pred ~s_obs fix =
  let supported, unsupported =
    List.partition_map
      (fun c ->
        match normalize_cmp c with
        | Some (op, col, Expr.Const v)
          when op <> Expr.Ne && Value.to_float v <> None ->
          Either.Left (op, col, Option.get (Value.to_float v), c)
        | _ -> Either.Right c)
      (Expr.conjuncts pred)
  in
  if supported <> [] then begin
    let sel c = Catalog.Selectivity.predicate props c in
    let s_unsup = List.fold_left (fun acc c -> acc *. sel c) 1. unsupported in
    let target_all = clamp_sel (s_obs /. Float.max 1e-9 s_unsup) in
    let s_sup = List.fold_left (fun acc (_, _, _, c) -> acc *. sel c) 1. supported in
    let scale =
      (target_all /. Float.max 1e-9 s_sup)
      ** (1. /. float_of_int (List.length supported))
    in
    List.iter
      (fun (op, col, v, c) ->
        let target = clamp_sel (sel c *. scale) in
        let col = Logical_props.canonical_name props col in
        match op with
        | Expr.Eq ->
          let d = Float.max 1. (1. /. target) in
          fix.cols <- (col, Fix_distinct d) :: fix.cols;
          fix.why <- Printf.sprintf "%s distinct -> %.1f" col d :: fix.why
        | Expr.Lt | Expr.Le -> begin
          match Logical_props.range_of props col with
          | Some (lo, hi) when v > lo && v < hi ->
            let t = Float.min 0.999 (Float.max 0.001 target) in
            let lo' = (v -. (t *. hi)) /. (1. -. t) in
            fix.cols <- (col, Fix_lo lo') :: fix.cols;
            fix.why <- Printf.sprintf "%s min -> %.1f" col lo' :: fix.why
          | _ -> ()
        end
        | Expr.Gt | Expr.Ge -> begin
          match Logical_props.range_of props col with
          | Some (lo, hi) when v > lo && v < hi ->
            let t = Float.min 0.999 (Float.max 0.001 target) in
            let hi' = lo +. ((v -. lo) /. (1. -. t)) in
            fix.cols <- (col, Fix_hi hi') :: fix.cols;
            fix.why <- Printf.sprintf "%s max -> %.1f" col hi' :: fix.why
          | _ -> ()
        end
        | Expr.Ne -> ())
      supported
  end

(* Keep a corrected bound's value kind aligned with the stored data so
   integer columns keep integer bounds. *)
let value_like old v ~round =
  match old with
  | Some (Value.Int _) -> Value.Int (int_of_float (round v))
  | _ -> Value.Float v

let apply_table_fix catalog table_name fix =
  let table = Catalog.find catalog table_name in
  let s = table.Catalog.stats in
  (* Row-count correction: rescale the mass-proportional statistics;
     distinct counts only clamp downward (growth reveals rows, not new
     values we could know about). *)
  let s =
    match fix.row with
    | None -> s
    | Some rc ->
      let rc = Float.max 1. rc in
      let f = rc /. Float.max 1. s.Stats.row_count in
      {
        Stats.row_count = rc;
        columns =
          List.map
            (fun (c, (cs : Stats.column_stats)) ->
              ( c,
                {
                  cs with
                  Stats.n_distinct = Float.max 1. (Float.min cs.Stats.n_distinct rc);
                  null_count = cs.Stats.null_count *. f;
                  histogram =
                    Option.map
                      (fun (h : Stats.histogram) ->
                        { h with Stats.buckets = Array.map (fun b -> b *. f) h.Stats.buckets })
                      cs.Stats.histogram;
                } ))
            s.Stats.columns;
      }
  in
  let update_col s col g =
    {
      s with
      Stats.columns =
        List.map
          (fun (c, cs) -> if String.equal c col then (c, g cs) else (c, cs))
          s.Stats.columns;
    }
  in
  let s =
    List.fold_left
      (fun acc (col, cf) ->
        match cf with
        | Fix_distinct d ->
          update_col acc col (fun (cs : Stats.column_stats) ->
              { cs with Stats.n_distinct = Float.max 1. (Float.min d acc.Stats.row_count) })
        | Fix_lo lo ->
          update_col acc col (fun (cs : Stats.column_stats) ->
              { cs with Stats.min_value = Some (value_like cs.Stats.min_value lo ~round:Float.floor) })
        | Fix_hi hi ->
          update_col acc col (fun (cs : Stats.column_stats) ->
              { cs with Stats.max_value = Some (value_like cs.Stats.max_value hi ~round:Float.ceil) }))
      s fix.cols
  in
  Catalog.update_stats catalog ~table:table_name ~stats:s ();
  {
    table = table_name;
    detail = String.concat "; " (List.rev fix.why);
    stats_version = Catalog.stats_version catalog table_name;
  }

let apply_corrections ?only catalog ~threshold plan nodes =
  let by_path = plan_table plan in
  let obs_by_path = Hashtbl.create 32 in
  List.iter (fun n -> Hashtbl.replace obs_by_path n.path n) nodes;
  let fixes : (string, table_fix) Hashtbl.t = Hashtbl.create 8 in
  let fix_for t =
    match Hashtbl.find_opt fixes t with
    | Some f -> f
    | None ->
      let f = { row = None; cols = []; why = [] } in
      Hashtbl.add fixes t f;
      f
  in
  let stored_table t =
    match Catalog.find_opt catalog t with
    | Some tbl when not tbl.Catalog.materialized -> Some tbl
    | _ -> None
  in
  let consider (n : node_obs) =
    if drifted ~threshold n then
      match Hashtbl.find_opt by_path n.path with
      | None -> ()
      | Some (p : Physical.plan) -> begin
        match p.Physical.alg with
        | Physical.Table_scan t ->
          (* A full scan observes the true row count directly. *)
          Option.iter
            (fun (tbl : Catalog.table) ->
              let f = fix_for t in
              let rc = float_of_int n.observed in
              f.row <- Some rc;
              f.why <-
                Printf.sprintf "row_count %.0f -> %.0f" tbl.Catalog.stats.Stats.row_count
                  rc
                :: f.why)
            (stored_table t)
        | Physical.Filter pred -> begin
          (* A selection whose subtree reads one base relation: the
             observed selectivity (output over the child's observed
             input) incriminates the predicate columns' statistics. *)
          match n.relations with
          | [ t ] ->
            Option.iter
              (fun tbl ->
                match Hashtbl.find_opt obs_by_path (n.path @ [ 0 ]) with
                | Some input when input.observed > 0 ->
                  let s_obs =
                    float_of_int n.observed /. float_of_int input.observed
                  in
                  predicate_fixes (Catalog.base_props tbl) pred ~s_obs (fix_for t)
                | _ -> ())
              (stored_table t)
          | _ -> ()
        end
        | Physical.Index_scan (t, _, pred) ->
          (* The index scan applies its predicate during the scan, so
             only the qualifying count is observed; the claimed row
             count stands in for the input (attributing a row-count lie
             to the predicate — the best the observation supports). *)
          Option.iter
            (fun (tbl : Catalog.table) ->
              let claimed = Float.max 1. tbl.Catalog.stats.Stats.row_count in
              let s_obs = Float.min 1. (float_of_int n.observed /. claimed) in
              predicate_fixes (Catalog.base_props tbl) pred ~s_obs (fix_for t))
            (stored_table t)
        | _ -> ()
      end
  in
  (match only with
   | Some path -> Option.iter consider (Hashtbl.find_opt obs_by_path path)
   | None -> List.iter consider nodes);
  Hashtbl.fold (fun t f acc -> (t, f) :: acc) fixes []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (t, f) -> apply_table_fix catalog t f)

(* ---------------------------------------------------------------------- *)
(* Measured cost                                                           *)
(* ---------------------------------------------------------------------- *)

(* Tuple touches each operator actually performed, from the observed
   cardinalities and how the executor implements the algorithm: the
   nested-loop join evaluates its predicate on every (outer x
   materialized-inner) pair, the hash join touches build + probe +
   matches, the merge join is linear, sorts compare n log n times, and
   the exchange operators are pass-through on the single-node executor
   (their output is their child's, already counted). An estimated cost
   model never enters: this is the metric estimates are judged by. *)
let node_work by_path obs (n : node_obs) =
  let c path = float_of_int (Option.value (Hashtbl.find_opt obs path) ~default:0) in
  let self = float_of_int n.observed in
  let in0 = c (n.path @ [ 0 ]) and in1 = c (n.path @ [ 1 ]) in
  let sort_work m = m *. Float.max 1. (Float.log2 (Float.max 2. m)) in
  match Hashtbl.find_opt by_path n.path with
  | None -> self
  | Some (p : Physical.plan) -> begin
    match p.Physical.alg with
    | Physical.Table_scan _ | Physical.Index_scan _ | Physical.Scan_materialized _ ->
      self
    | Physical.Filter _ | Physical.Project_cols _ | Physical.Hash_dedup -> in0
    | Physical.Nested_loop_join _ -> in0 *. in1
    | Physical.Hash_join _ | Physical.Hash_join_project _ | Physical.Merge_join _ ->
      in0 +. in1 +. self
    | Physical.Sort _ | Physical.Sort_dedup _ -> sort_work in0
    | Physical.Merge_union | Physical.Hash_union | Physical.Merge_intersect
    | Physical.Hash_intersect | Physical.Merge_difference | Physical.Hash_difference ->
      in0 +. in1
    | Physical.Stream_aggregate _ | Physical.Hash_aggregate _ -> in0
    | Physical.Repartition _ | Physical.Gather | Physical.Merge_gather _
    | Physical.Materialize _ ->
      0.
  end

let measured_work plan nodes ~(io : Executor.Io_stats.t) =
  let by_path = plan_table plan in
  let obs = Hashtbl.create 32 in
  List.iter (fun n -> Hashtbl.replace obs n.path n.observed) nodes;
  List.fold_left (fun acc n -> acc +. node_work by_path obs n) 0. nodes
  +. float_of_int (io.page_reads + io.page_writes)

(* ---------------------------------------------------------------------- *)
(* JSON export                                                             *)
(* ---------------------------------------------------------------------- *)

let node_to_json n =
  J.Obj
    [
      ("path", J.Arr (List.map J.int n.path));
      ("alg", J.Str n.alg);
      ("estimated", J.Num n.estimated);
      ("observed", J.int n.observed);
      ("ratio", J.Num n.ratio);
      ("relations", J.Arr (List.map (fun r -> J.Str r) n.relations));
      ("complete", J.Bool n.complete);
    ]

let report_to_json r =
  J.Obj
    [
      ("drift_threshold", J.Num r.threshold);
      ("nodes", J.Arr (List.map node_to_json r.nodes));
      ("drifted", J.int (List.length r.drifted));
      ( "corrections",
        J.Arr
          (List.map
             (fun c ->
               J.Obj
                 [
                   ("table", J.Str c.table);
                   ("detail", J.Str c.detail);
                   ("stats_version", J.int c.stats_version);
                 ])
             r.corrections) );
      ("escaped", J.Bool r.escaped);
      ("replans", J.int r.replans);
      ( "stats",
        J.Obj (List.map (fun (name, read) -> (name, J.int (read r.counters))) counter_table)
      );
    ]

(* ---------------------------------------------------------------------- *)
(* The loop end to end                                                     *)
(* ---------------------------------------------------------------------- *)

type outcome = {
  tuples : Tuple.t array;
  schema : Schema.t;
  io : Executor.Io_stats.t;
  plan : Opt.plan_node;
  report : report;
}

let finish config c stats catalog ~escaped ~replans ~mid_corrections plan_node
    (tuples, schema, io, nodes) =
  c.fb_runs <- c.fb_runs + 1;
  c.fb_nodes_observed <- c.fb_nodes_observed + List.length nodes;
  let drifted = drift_nodes ~threshold:config.drift_threshold nodes in
  c.fb_drift_nodes <- c.fb_drift_nodes + List.length drifted;
  let post =
    if config.correct && drifted <> [] then
      apply_corrections catalog ~threshold:config.drift_threshold
        (Opt.to_physical plan_node) nodes
    else []
  in
  c.fb_corrections <- c.fb_corrections + List.length post;
  {
    tuples;
    schema;
    io;
    plan = plan_node;
    report =
      {
        nodes;
        drifted;
        threshold = config.drift_threshold;
        corrections = mid_corrections @ post;
        escaped;
        replans;
        counters = c;
        stats;
      };
  }

let run_plan ?(config = default_config) (request : Opt.request) query ~required
    plan_node =
  let catalog = request.Opt.catalog in
  let c = counters () in
  let stats = S.create () in
  let escaped = ref false in
  let replans = ref 0 in
  let mid_corrections = ref [] in
  let rec attempt budget plan_node =
    let phys = Opt.to_physical plan_node in
    (* The final attempt always runs to completion: no hatch left. *)
    let escape_factor = if budget > 0 then config.escape_factor else None in
    match observed_run ?escape_factor catalog phys with
    | Complete (tuples, schema, io, nodes) -> (plan_node, (tuples, schema, io, nodes))
    | Aborted { at; nodes; io = _ } -> begin
      escaped := true;
      c.fb_escapes <- c.fb_escapes + 1;
      escape_trigger config;
      (* Correct only the node that blew its budget: its count already
         proves the estimate wrong by the escape factor, while every
         other count is still a partial lower bound. *)
      let cs =
        apply_corrections ~only:at catalog ~threshold:config.drift_threshold phys nodes
      in
      match cs with
      | [] ->
        (* No single-table statistic to pin the blowup on (e.g. a join
           misestimate): re-optimizing would reproduce the same plan, so
           disarm the hatch and finish the run. *)
        attempt 0 plan_node
      | cs -> begin
        c.fb_corrections <- c.fb_corrections + List.length cs;
        mid_corrections := !mid_corrections @ cs;
        c.fb_replans <- c.fb_replans + 1;
        incr replans;
        let result = Opt.optimize request query ~required in
        S.merge ~into:stats result.Opt.stats;
        match result.Opt.plan with
        | Some p -> attempt (budget - 1) p
        | None -> attempt 0 plan_node
      end
    end
  in
  let final_plan, run = attempt config.max_replans plan_node in
  finish config c stats catalog ~escaped:!escaped ~replans:!replans
    ~mid_corrections:!mid_corrections final_plan run

let run ?config (request : Opt.request) query ~required =
  let result = Opt.optimize request query ~required in
  match result.Opt.plan with
  | None -> invalid_arg "Feedback.run: optimizer found no plan"
  | Some p -> run_plan ?config request query ~required p

let run_dynamic ?(config = default_config) (request : Opt.request) (dyn : Dynplan.t)
    ~param =
  let catalog = request.Opt.catalog in
  let c = counters () and stats = S.create () in
  (* The static plan was optimized at the range midpoint (see
     Dynplan.prepare); that witness carries its embedded constants. *)
  let witness =
    match dyn.Dynplan.buckets with
    | [] -> 0.
    | first :: _ ->
      let last = List.fold_left (fun _ b -> b) first dyn.Dynplan.buckets in
      (first.Dynplan.lo +. last.Dynplan.hi) /. 2.
  in
  let static_node = Dynplan.instantiate_node dyn.Dynplan.static_plan ~witness ~actual:param in
  let static_actual = Opt.to_physical static_node in
  let static_believed = Opt.to_physical dyn.Dynplan.static_plan in
  match
    observed_run ?escape_factor:config.escape_factor ~estimate_plan:static_believed
      catalog static_actual
  with
  | Complete (tuples, schema, io, nodes) ->
    finish config c stats catalog ~escaped:false ~replans:0 ~mid_corrections:[]
      static_node
      (tuples, schema, io, nodes)
  | Aborted _ -> begin
    (* Abort into the dynplan bucket covering the actual parameter: the
       start-up-time choose-plan re-run as a run-time fallback. *)
    c.fb_escapes <- c.fb_escapes + 1;
    escape_trigger config;
    let bucket = Dynplan.choose dyn param in
    let bucket_node =
      Dynplan.instantiate_node bucket.Dynplan.plan ~witness:bucket.Dynplan.witness
        ~actual:param
    in
    let believed = Opt.to_physical bucket.Dynplan.plan in
    match
      observed_run ~estimate_plan:believed catalog (Opt.to_physical bucket_node)
    with
    | Complete (tuples, schema, io, nodes) ->
      finish config c stats catalog ~escaped:true ~replans:0 ~mid_corrections:[]
        bucket_node
        (tuples, schema, io, nodes)
    | Aborted _ -> assert false (* no escape factor on the fallback run *)
  end
