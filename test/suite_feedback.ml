(* Tests of the runtime cardinality feedback loop: observed-count
   exactness, drift-report shape, statistics corrections and their
   plan-cache invalidation, the mid-query escape hatch, and
   feedback-off bit-identity with the plain executor. *)

open Relalg

let skew_rows catalog table factor =
  let tbl = Catalog.find catalog table in
  let s = tbl.Catalog.stats in
  let stats =
    { s with Catalog.Stats.row_count = Float.max 1. (s.Catalog.Stats.row_count *. factor) }
  in
  Catalog.update_stats catalog ~table ~stats ()

let set_distinct catalog table column d =
  let tbl = Catalog.find catalog table in
  let s = tbl.Catalog.stats in
  let stats =
    {
      s with
      Catalog.Stats.columns =
        List.map
          (fun (c, (cs : Catalog.Stats.column_stats)) ->
            if c = column then (c, { cs with Catalog.Stats.n_distinct = d }) else (c, cs))
          s.Catalog.Stats.columns;
    }
  in
  Catalog.update_stats catalog ~table ~stats ()

let distinct_of catalog table column =
  let tbl = Catalog.find catalog table in
  let cs = List.assoc column tbl.Catalog.stats.Catalog.Stats.columns in
  cs.Catalog.Stats.n_distinct

let observe_plan catalog query =
  let plan = Helpers.optimize_plan catalog query in
  let phys = Relmodel.Optimizer.to_physical plan in
  match Feedback.observed_run catalog phys with
  | Feedback.Complete (tuples, schema, io, nodes) -> (phys, tuples, schema, io, nodes)
  | Feedback.Aborted _ -> Alcotest.fail "unexpected abort with no escape factor"

(* ---------- q-error ---------- *)

let test_q_error () =
  Alcotest.(check (float 1e-9)) "exact" 1.0 (Feedback.q_error ~estimated:60. ~observed:60);
  Alcotest.(check (float 1e-9)) "under" 5.0 (Feedback.q_error ~estimated:12. ~observed:60);
  Alcotest.(check (float 1e-9)) "over" 5.0 (Feedback.q_error ~estimated:60. ~observed:12);
  (* Both sides clamp below at 1: an empty result against a tiny
     estimate is not infinite drift. *)
  Alcotest.(check (float 1e-9)) "zero observed" 1.0 (Feedback.q_error ~estimated:0.5 ~observed:0)

let test_config_validation () =
  Alcotest.check_raises "threshold < 1 rejected"
    (Invalid_argument "Feedback.config: drift_threshold must be >= 1") (fun () ->
      ignore (Feedback.config ~drift_threshold:0.5 ()));
  Alcotest.check_raises "escape factor < 1 rejected"
    (Invalid_argument "Feedback.config: escape_factor must be >= 1") (fun () ->
      ignore (Feedback.config ~escape_factor:0.9 ()))

(* ---------- observed-cardinality exactness ---------- *)

let test_observed_counts_exact () =
  let catalog = Helpers.small_catalog () in
  let query = Logical.select Expr.(col "r.a" <=% int 3) (Logical.get "r") in
  let _, tuples, _, _, nodes = observe_plan catalog query in
  (* The root delivers exactly the result cardinality; the scan of r
     delivers exactly its 60 rows. *)
  let root = List.find (fun (n : Feedback.node_obs) -> n.path = []) nodes in
  Alcotest.(check int) "root observed = result rows" (Array.length tuples) root.observed;
  let scan =
    List.find (fun (n : Feedback.node_obs) -> n.alg = "table_scan(r)") nodes
  in
  Alcotest.(check int) "scan observed = table rows" 60 scan.observed;
  Alcotest.(check bool) "scan ran to completion" true scan.complete;
  Alcotest.(check (float 1e-9)) "scan estimate exact" 1.0 scan.ratio

let test_report_shape () =
  let catalog = Helpers.small_catalog () in
  let query =
    Logical.select
      Expr.(col "r.a" <=% int 3)
      (Logical.join Expr.(col "r.a" =% col "s.a") (Logical.get "r") (Logical.get "s"))
  in
  let phys, _, _, _, nodes = observe_plan catalog query in
  let rec count (p : Physical.plan) =
    1 + List.fold_left (fun acc c -> acc + count c) 0 p.Physical.children
  in
  Alcotest.(check int) "one observation per plan node" (count phys) (List.length nodes);
  (* Preorder: the root comes first, every path is unique. *)
  (match nodes with
   | first :: _ -> Alcotest.(check (list int)) "root first" [] first.Feedback.path
   | [] -> Alcotest.fail "empty report");
  let paths = List.map (fun (n : Feedback.node_obs) -> n.path) nodes in
  Alcotest.(check int) "paths unique" (List.length paths)
    (List.length (List.sort_uniq compare paths));
  List.iter
    (fun (n : Feedback.node_obs) ->
      if n.ratio < 1. then Alcotest.failf "ratio %.3f < 1 at %s" n.ratio n.alg)
    nodes

let jmem name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing JSON field %s" name

let jlist j = match Obs.Json.to_list j with Some l -> l | None -> Alcotest.fail "not a JSON list"
let jfloat j = match Obs.Json.to_float j with Some f -> f | None -> Alcotest.fail "not a JSON number"
let jint j = match Obs.Json.to_int j with Some i -> i | None -> Alcotest.fail "not a JSON int"
let jstr j = match Obs.Json.to_str j with Some s -> s | None -> Alcotest.fail "not a JSON string"

let test_report_json_shape () =
  let catalog = Helpers.small_catalog () in
  skew_rows catalog "r" 0.05;
  let query = Logical.select Expr.(col "r.a" <=% int 3) (Logical.get "r") in
  let plan = Helpers.optimize_plan catalog query in
  let outcome =
    Feedback.run_plan (Relmodel.Optimizer.request catalog) query ~required:Phys_prop.any
      plan
  in
  let json = Feedback.report_to_json outcome.Feedback.report in
  let nodes = jlist (jmem "nodes" json) in
  Alcotest.(check bool) "nodes present" true (nodes <> []);
  List.iter
    (fun n ->
      ignore (jlist (jmem "path" n));
      ignore (jstr (jmem "alg" n));
      ignore (jfloat (jmem "estimated" n));
      ignore (jint (jmem "observed" n));
      if jfloat (jmem "ratio" n) < 1. then Alcotest.fail "ratio < 1 in JSON export")
    nodes;
  let stats = jmem "stats" json in
  List.iter (fun name -> ignore (jint (jmem name stats))) (Feedback.metric_names "")

(* ---------- drift eligibility ---------- *)

let test_incomplete_counts_are_lower_bounds () =
  let node ~complete ~estimated ~observed =
    {
      Feedback.path = [];
      alg = "x";
      estimated;
      observed;
      ratio = Feedback.q_error ~estimated ~observed;
      relations = [ "r" ];
      complete;
    }
  in
  (* An early-terminated node below its estimate proves nothing... *)
  Alcotest.(check int) "partial count below estimate not drifted" 0
    (List.length
       (Feedback.drift_nodes ~threshold:2. [ node ~complete:false ~estimated:100. ~observed:5 ]));
  (* ...but a partial count above the estimate is already proof. *)
  Alcotest.(check int) "partial count above estimate drifted" 1
    (List.length
       (Feedback.drift_nodes ~threshold:2. [ node ~complete:false ~estimated:10. ~observed:50 ]));
  Alcotest.(check int) "complete undercount drifted" 1
    (List.length
       (Feedback.drift_nodes ~threshold:2. [ node ~complete:true ~estimated:100. ~observed:5 ]))

(* ---------- corrections ---------- *)

let test_row_count_correction () =
  let catalog = Helpers.small_catalog () in
  skew_rows catalog "r" (1. /. 30.);
  let v0 = Catalog.stats_version catalog "r" in
  let query = Logical.select Expr.(col "r.a" <=% int 3) (Logical.get "r") in
  let _, _, _, _, nodes = observe_plan catalog query in
  let phys =
    Relmodel.Optimizer.to_physical (Helpers.optimize_plan catalog query)
  in
  let corrections = Feedback.apply_corrections catalog ~threshold:2. phys nodes in
  Alcotest.(check bool) "a correction was installed" true (corrections <> []);
  let c = List.find (fun (c : Feedback.correction) -> c.table = "r") corrections in
  Alcotest.(check bool) "stats version bumped" true (c.stats_version > v0);
  Alcotest.(check bool) "correction version is current" true
    (c.stats_version = Catalog.stats_version catalog "r");
  let tbl = Catalog.find catalog "r" in
  Alcotest.(check (float 1e-6)) "row count corrected to the observed truth" 60.
    tbl.Catalog.stats.Catalog.Stats.row_count

let test_distinct_correction () =
  let catalog = Helpers.small_catalog () in
  (* r.a really has 10 distinct values; claim 1, so the equality
     estimate becomes the whole table. *)
  set_distinct catalog "r" "r.a" 1.;
  let query = Logical.select Expr.(col "r.a" =% int 3) (Logical.get "r") in
  let _, tuples, _, _, nodes = observe_plan catalog query in
  let phys =
    Relmodel.Optimizer.to_physical (Helpers.optimize_plan catalog query)
  in
  let corrections = Feedback.apply_corrections catalog ~threshold:2. phys nodes in
  Alcotest.(check bool) "a correction was installed" true (corrections <> []);
  (* The corrected distinct count makes the estimator reproduce the
     observed selectivity: 60 / observed. *)
  let expected = 60. /. float_of_int (Array.length tuples) in
  let d = distinct_of catalog "r" "r.a" in
  Alcotest.(check bool)
    (Printf.sprintf "distinct corrected toward %.1f (got %.1f)" expected d)
    true
    (Float.abs (d -. expected) <= 0.35 *. expected)

let test_accurate_stats_no_corrections () =
  let catalog = Helpers.small_catalog () in
  let v0 = Catalog.stats_version catalog "r" in
  let query = Logical.select Expr.(col "r.a" <=% int 3) (Logical.get "r") in
  let plan = Helpers.optimize_plan catalog query in
  let outcome =
    Feedback.run_plan (Relmodel.Optimizer.request catalog) query ~required:Phys_prop.any
      plan
  in
  Alcotest.(check int) "no corrections on accurate statistics" 0
    (List.length outcome.Feedback.report.Feedback.corrections);
  Alcotest.(check int) "stats version untouched" v0 (Catalog.stats_version catalog "r")

let test_correction_invalidates_plansrv () =
  let catalog = Helpers.small_catalog () in
  skew_rows catalog "r" (1. /. 30.);
  let request = Relmodel.Optimizer.request catalog in
  let srv = Plansrv.create (Plansrv.config request) in
  let w = Plansrv.worker srv in
  let q_r = Logical.select Expr.(col "r.a" <=% int 3) (Logical.get "r") in
  let q_t = Logical.get "t" in
  let outcome_of (r : Plansrv.response) = r.Plansrv.outcome in
  let r1 = Plansrv.serve_one srv w q_r ~required:Phys_prop.any in
  let t1 = Plansrv.serve_one srv w q_t ~required:Phys_prop.any in
  Alcotest.(check bool) "both cold misses" true
    (outcome_of r1 = Plansrv.Miss && outcome_of t1 = Plansrv.Miss);
  (* Execute the cached r plan under feedback: the row-count lie is
     discovered and corrected, bumping r's statistics version. *)
  let plan = match r1.Plansrv.plan with Some p -> p | None -> Alcotest.fail "no plan" in
  let outcome = Feedback.run_plan request q_r ~required:Phys_prop.any plan in
  Alcotest.(check bool) "feedback corrected r" true
    (outcome.Feedback.report.Feedback.corrections <> []);
  (* The r entry is stamped with the old statistics version and must be
     lazily invalidated; the t entry is untouched. *)
  let r2 = Plansrv.serve_one srv w q_r ~required:Phys_prop.any in
  let t2 = Plansrv.serve_one srv w q_t ~required:Phys_prop.any in
  (match outcome_of r2 with
   | Plansrv.Invalidated -> ()
   | Plansrv.Hit -> Alcotest.fail "stale r entry served as a hit"
   | Plansrv.Miss -> Alcotest.fail "r entry vanished instead of invalidating");
  (match outcome_of t2 with
   | Plansrv.Hit -> ()
   | Plansrv.Invalidated -> Alcotest.fail "t entry invalidated by an r correction"
   | Plansrv.Miss -> Alcotest.fail "t entry vanished");
  (* After re-optimization against corrected statistics the entry is
     fresh again. *)
  let r3 = Plansrv.serve_one srv w q_r ~required:Phys_prop.any in
  Alcotest.(check bool) "corrected entry stays fresh" true (outcome_of r3 = Plansrv.Hit)

(* ---------- escape hatch ---------- *)

let test_escape_fires_at_k () =
  let catalog = Helpers.small_catalog () in
  skew_rows catalog "r" (1. /. 30.);
  let query = Logical.select Expr.(col "r.a" <=% int 3) (Logical.get "r") in
  let phys =
    Relmodel.Optimizer.to_physical (Helpers.optimize_plan catalog query)
  in
  match Feedback.observed_run ~escape_factor:4. catalog phys with
  | Feedback.Aborted { at; nodes; _ } ->
    let blown = List.find (fun (n : Feedback.node_obs) -> n.path = at) nodes in
    (* The abort happened exactly one tuple past the k x budget. *)
    let budget = int_of_float (Float.ceil (4. *. Float.max 1. blown.estimated)) in
    Alcotest.(check int) "aborted one tuple past k x estimate" (budget + 1) blown.observed
  | Feedback.Complete _ -> Alcotest.fail "escape hatch did not fire on a 30x lie"

let test_escape_never_fires_on_exact_estimates () =
  let catalog = Helpers.small_catalog () in
  List.iter
    (fun table ->
      let query = Logical.get table in
      let phys =
        Relmodel.Optimizer.to_physical (Helpers.optimize_plan catalog query)
      in
      let expected, _, _ = Executor.run catalog phys in
      (* k = 1: the tightest legal hatch still never fires when the
         estimate is exact. *)
      match Feedback.observed_run ~escape_factor:1. catalog phys with
      | Feedback.Complete (tuples, _, _, _) ->
        Alcotest.(check bool)
          (table ^ ": identical result under the armed hatch")
          true (tuples = expected)
      | Feedback.Aborted _ -> Alcotest.failf "%s: hatch fired on an exact estimate" table)
    [ "r"; "s"; "t" ]

let test_escape_replans_and_recovers () =
  let catalog = Helpers.small_catalog () in
  skew_rows catalog "r" (1. /. 30.);
  let request = Relmodel.Optimizer.request catalog in
  let query =
    Logical.select
      Expr.(col "r.a" <=% int 3)
      (Logical.join Expr.(col "r.a" =% col "s.a") (Logical.get "r") (Logical.get "s"))
  in
  let outcome =
    Feedback.run
      ~config:(Feedback.config ~escape_factor:2. ())
      request query ~required:Phys_prop.any
  in
  Alcotest.(check bool) "escaped" true outcome.Feedback.report.Feedback.escaped;
  Alcotest.(check bool) "replanned" true (outcome.Feedback.report.Feedback.replans >= 1);
  (* The replanned execution still returns the right answer. *)
  let expected, _ = Executor.naive catalog query in
  Helpers.check_same_bag "escape + replan result = naive" expected outcome.Feedback.tuples;
  (* And the catalog now tells the truth about r. *)
  let tbl = Catalog.find catalog "r" in
  Alcotest.(check (float 1e-6)) "row count corrected" 60.
    tbl.Catalog.stats.Catalog.Stats.row_count

(* ---------- counters ---------- *)

let test_feedback_counters () =
  let catalog = Helpers.small_catalog () in
  skew_rows catalog "r" (1. /. 30.);
  let query = Logical.select Expr.(col "r.a" <=% int 3) (Logical.get "r") in
  let plan = Helpers.optimize_plan catalog query in
  let outcome =
    Feedback.run_plan (Relmodel.Optimizer.request catalog) query ~required:Phys_prop.any
      plan
  in
  let report = outcome.Feedback.report in
  let c = report.Feedback.counters in
  Alcotest.(check int) "one run" 1 c.Feedback.fb_runs;
  Alcotest.(check int) "every node observed" (List.length report.Feedback.nodes)
    c.Feedback.fb_nodes_observed;
  Alcotest.(check int) "drift counter matches report"
    (List.length report.Feedback.drifted)
    c.Feedback.fb_drift_nodes;
  Alcotest.(check int) "correction counter matches report"
    (List.length report.Feedback.corrections)
    c.Feedback.fb_corrections;
  Alcotest.(check int) "no re-plan, no re-plan search effort" 0
    report.Feedback.stats.Volcano.Search_stats.tasks;
  (* The counters are the feedback layer's own: none is a search
     counter, and a live sum of runs is exported under the
     volcano_search_feedback_ names. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is not a search counter") false
        (List.mem name (Volcano.Search_stats.metric_names "volcano_search_")))
    (Feedback.metric_names "volcano_search_");
  let total = Feedback.counters () in
  let reg = Obs.Metrics.create () in
  Feedback.register reg total;
  Feedback.add_counters ~into:total c;
  Feedback.add_counters ~into:total c;
  let gauges = Obs.Json.member "gauges" (Obs.Metrics.to_json reg) in
  Alcotest.(check (option (float 0.))) "gauges read the live sum" (Some 2.)
    (Option.bind (Option.bind gauges (Obs.Json.member "volcano_search_feedback_runs"))
       Obs.Json.to_float)

(* ---------- feedback-off bit-identity ---------- *)

let prop_observed_run_bit_identical =
  let gen =
    QCheck.make
      QCheck.Gen.(
        triple (oneofl [ "r"; "s"; "t" ]) (int_bound 9) QCheck.Gen.bool)
  in
  Helpers.qcheck_case ~count:60 "observed_run is bit-identical to Executor.run" gen
    (fun (table, k, joined) ->
      let catalog = Helpers.small_catalog () in
      let query =
        if joined then
          Logical.select
            Expr.(col "r.a" <=% int k)
            (Logical.join
               Expr.(col "r.a" =% col "s.a")
               (Logical.get "r") (Logical.get "s"))
        else Logical.select Expr.(col (table ^ ".id") <=% int (k * 7)) (Logical.get table)
      in
      let phys =
        Relmodel.Optimizer.to_physical (Helpers.optimize_plan catalog query)
      in
      let expected, schema, _ = Executor.run catalog phys in
      match Feedback.observed_run catalog phys with
      | Feedback.Complete (tuples, schema', _, _) ->
        tuples = expected && Schema.names schema' = Schema.names schema
      | Feedback.Aborted _ -> false)

let suite =
  [
    Alcotest.test_case "q-error" `Quick test_q_error;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "observed counts exact" `Quick test_observed_counts_exact;
    Alcotest.test_case "report shape" `Quick test_report_shape;
    Alcotest.test_case "report JSON shape" `Quick test_report_json_shape;
    Alcotest.test_case "incomplete counts are lower bounds" `Quick
      test_incomplete_counts_are_lower_bounds;
    Alcotest.test_case "row-count correction" `Quick test_row_count_correction;
    Alcotest.test_case "distinct correction" `Quick test_distinct_correction;
    Alcotest.test_case "accurate stats: no corrections" `Quick
      test_accurate_stats_no_corrections;
    Alcotest.test_case "correction invalidates the right plansrv entries" `Quick
      test_correction_invalidates_plansrv;
    Alcotest.test_case "escape fires at k x estimate" `Quick test_escape_fires_at_k;
    Alcotest.test_case "escape never fires on exact estimates" `Quick
      test_escape_never_fires_on_exact_estimates;
    Alcotest.test_case "escape replans and recovers" `Quick test_escape_replans_and_recovers;
    Alcotest.test_case "feedback counters" `Quick test_feedback_counters;
    prop_observed_run_bit_identical;
  ]
