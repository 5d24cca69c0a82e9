(* Tests of the observability layer (lib/obs) and its wiring into the
   search engine: JSON emit/parse roundtrips, the metrics registry and
   its exporters, span-tree well-formedness (every span closed exactly
   once, children bracketed by their parents, per-kind task-span counts
   equal to the engine's task counters), the Chrome-trace exporter, EXPLAIN
   provenance, plansrv latency quantiles, and the guarantee that
   turning observability on never changes the plan. *)

open Relalg

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Obs.Json.(
      Obj
        [
          ("a", Arr [ int 1; Num 2.5; Str "x\"y\n\t\\"; Bool true; Null ]);
          ("empty_obj", Obj []);
          ("empty_arr", Arr []);
          ("neg", Num (-0.125));
          ("big", Num 1e17);
        ])
  in
  (match Obs.Json.of_string (Obs.Json.to_string v) with
   | Ok v' -> Alcotest.(check bool) "emit/parse roundtrip" true (v = v')
   | Error e -> Alcotest.failf "parse failed: %s" e);
  (* Accessors. *)
  let l = Option.bind (Obs.Json.member "a" v) Obs.Json.to_list in
  (match l with
   | Some (x :: _) -> Alcotest.(check (option int)) "int accessor" (Some 1) (Obs.Json.to_int x)
   | _ -> Alcotest.fail "member/to_list");
  Alcotest.(check (option string)) "str accessor" (Some "x\"y\n\t\\")
    (match l with
     | Some [ _; _; s; _; _ ] -> Obs.Json.to_str s
     | _ -> None);
  Alcotest.(check bool) "missing member" true (Obs.Json.member "nope" v = None);
  Alcotest.(check bool) "shape mismatch" true (Obs.Json.to_int (Obs.Json.Str "1") = None)

let test_json_errors () =
  let bad s =
    match Obs.Json.of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "unterminated object" true (bad "{");
  Alcotest.(check bool) "trailing garbage" true (bad "1 x");
  Alcotest.(check bool) "bare word" true (bad "nulla");
  Alcotest.(check bool) "unterminated string" true (bad {|"abc|});
  Alcotest.(check bool) "valid nested ok" false (bad {|{"a":[1,{"b":null}]}|})

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters_and_gauges () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg ~help:"test counter" "test_total" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:41 c;
  Alcotest.(check int) "counter accumulates" 42 (Obs.Metrics.counter_value c);
  (* Fetch-by-name returns the same counter. *)
  Obs.Metrics.incr (Obs.Metrics.counter reg "test_total");
  Alcotest.(check int) "same counter by name" 43 (Obs.Metrics.counter_value c);
  let cell = ref 7.5 in
  Obs.Metrics.gauge reg ~help:"test gauge" "test_gauge" (fun () -> !cell);
  let text = Obs.Metrics.to_prometheus reg in
  let contains needle hay =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "prometheus counter line" true (contains "test_total 43" text);
  Alcotest.(check bool) "prometheus gauge line" true (contains "test_gauge 7.5" text);
  Alcotest.(check bool) "prometheus TYPE comments" true (contains "# TYPE test_total counter" text);
  (* Gauges read the live cell at export time. *)
  cell := 9.;
  Alcotest.(check bool) "gauge reads live value" true
    (contains "test_gauge 9" (Obs.Metrics.to_prometheus reg))

let test_histogram_quantiles () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg ~help:"test histogram" "test_ms" in
  Alcotest.(check (float 0.)) "empty quantile" 0. (Obs.Metrics.quantile h 0.5);
  for i = 1 to 100 do
    Obs.Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (Obs.Metrics.hist_count h);
  Alcotest.(check (float 0.)) "sum" 5050. (Obs.Metrics.hist_sum h);
  Alcotest.(check (float 0.)) "max" 100. (Obs.Metrics.hist_max h);
  (* Log-bucketed estimates are conservative: at least the true value,
     at most 2x it (and never above the observed max). *)
  List.iter
    (fun (q, true_v) ->
      let est = Obs.Metrics.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q%.2f estimate %.1f >= true %.1f" q est true_v)
        true (est >= true_v);
      Alcotest.(check bool)
        (Printf.sprintf "q%.2f estimate %.1f <= 2x true" q est)
        true (est <= 2. *. true_v);
      Alcotest.(check bool) "estimate capped at max" true (est <= 100.))
    [ (0.5, 50.); (0.95, 95.); (0.99, 99.) ];
  Alcotest.(check (float 0.)) "q1 is the max" 100. (Obs.Metrics.quantile h 1.0)

let test_metrics_json_shape () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.incr (Obs.Metrics.counter reg "c_total");
  Obs.Metrics.gauge reg "g" (fun () -> 3.);
  Obs.Metrics.observe (Obs.Metrics.histogram reg "h_ms") 12.;
  let j = Obs.Metrics.to_json reg in
  let get path =
    List.fold_left (fun acc k -> Option.bind acc (Obs.Json.member k)) (Some j) path
  in
  Alcotest.(check (option int)) "counter in JSON" (Some 1)
    (Option.bind (get [ "counters"; "c_total" ]) Obs.Json.to_int);
  Alcotest.(check (option (float 0.))) "gauge in JSON" (Some 3.)
    (Option.bind (get [ "gauges"; "g" ]) Obs.Json.to_float);
  List.iter
    (fun field ->
      Alcotest.(check bool)
        (Printf.sprintf "histogram %s present" field)
        true
        (Option.bind (get [ "histograms"; "h_ms"; field ]) Obs.Json.to_float <> None))
    [ "count"; "sum"; "max"; "p50"; "p95"; "p99" ]

(* ------------------------------------------------------------------ *)
(* Span trees from real optimizations                                  *)
(* ------------------------------------------------------------------ *)

let optimize ?tracer ?profiler ?recorder ?(explain = false) (q : Workload.query) =
  let req =
    { (Relmodel.Optimizer.request q.catalog) with
      restore_columns = false;
      tracer;
      profiler;
      recorder;
      explain }
  in
  Relmodel.Optimizer.optimize req q.logical ~required:Phys_prop.any

let workload ~shape ~n ~seed =
  Workload.generate (Workload.spec ~shape ~n_relations:n ~seed ())

(* The well-formedness contract of a finished run's trace:
   - every span closed exactly once ([closed = total], no open spans);
   - parent links resolve, stay on one thread row, and bracket the child in
     time (a goal span closes after its concluding task's span);
   - per-kind task-span counts equal the engine's task counters, so the
     trace is a complete account of the work;
   - the merged span list is start-ordered. *)
let assert_well_formed msg tracer (stats : Volcano.Search_stats.t) =
  let spans = Obs.Trace.spans tracer in
  Alcotest.(check int)
    (msg ^ ": every span closed exactly once")
    (Obs.Trace.total tracer) (Obs.Trace.closed tracer);
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (sp : Obs.Trace.span) -> Hashtbl.replace by_id sp.Obs.Trace.sp_id sp) spans;
  List.iter
    (fun (sp : Obs.Trace.span) ->
      if Obs.Trace.is_open sp then Alcotest.failf "%s: span %s left open" msg sp.sp_name;
      if Int64.compare sp.sp_end sp.sp_start < 0 then
        Alcotest.failf "%s: span %s ends before it starts" msg sp.sp_name;
      if sp.sp_parent <> 0 then
        match Hashtbl.find_opt by_id sp.sp_parent with
        | None -> Alcotest.failf "%s: span %s has a dangling parent id" msg sp.sp_name
        | Some parent ->
          if parent.Obs.Trace.sp_track <> sp.sp_track then
            Alcotest.failf "%s: span %s crosses rows to its parent" msg sp.sp_name;
          if
            Int64.compare parent.Obs.Trace.sp_start sp.sp_start > 0
            || Int64.compare sp.sp_end parent.Obs.Trace.sp_end > 0
          then Alcotest.failf "%s: span %s escapes its parent's bracket" msg sp.sp_name)
    spans;
  let task_spans =
    List.filter (fun (sp : Obs.Trace.span) -> sp.Obs.Trace.sp_cat = "task") spans
  in
  List.iter
    (fun k ->
      let name = Volcano.Search_stats.task_kind_name k in
      Alcotest.(check int)
        (Printf.sprintf "%s: %s spans = task counter" msg name)
        (Volcano.Search_stats.tasks_of_kind stats k)
        (List.length
           (List.filter (fun (sp : Obs.Trace.span) -> sp.Obs.Trace.sp_name = name) task_spans)))
    Volcano.Search_stats.task_kinds;
  Alcotest.(check int)
    (msg ^ ": task spans = total tasks counter")
    stats.Volcano.Search_stats.tasks (List.length task_spans);
  let rec ordered = function
    | (a : Obs.Trace.span) :: (b :: _ as rest) ->
      Int64.compare a.sp_start b.Obs.Trace.sp_start <= 0 && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) (msg ^ ": merged spans start-ordered") true (ordered spans)

let test_span_tree_sequential () =
  let q = workload ~shape:Workload.Chain ~n:4 ~seed:23 in
  let tracer = Obs.Trace.create () in
  let result = optimize ~tracer q in
  Alcotest.(check bool) "found a plan" true (result.plan <> None);
  Alcotest.(check (list int)) "the search draws on row 0 only" [ 0 ]
    (Obs.Trace.tracks tracer);
  assert_well_formed "sequential chain n=4" tracer result.stats;
  let spans = Obs.Trace.spans tracer in
  (* Goal spans carry outcomes; at least one goal won (the root). *)
  let goals = List.filter (fun (sp : Obs.Trace.span) -> sp.Obs.Trace.sp_cat = "goal") spans in
  Alcotest.(check bool) "goal spans present" true (goals <> []);
  List.iter
    (fun (sp : Obs.Trace.span) ->
      if sp.Obs.Trace.sp_outcome = "" then
        Alcotest.failf "goal span for group %d has no outcome" sp.sp_group)
    goals;
  Alcotest.(check bool) "some goal won" true
    (List.exists (fun (sp : Obs.Trace.span) -> sp.Obs.Trace.sp_outcome = "won") goals)

(* Span ids are unique within a collector however many buffers it
   hands out: two optimizations traced by one collector (as feedback
   re-plans and a traced plan service make) share no id, and each
   parent link stays inside its own optimization's tree. *)
let test_span_ids_unique_across_buffers () =
  let tracer = Obs.Trace.create () in
  let results =
    List.map
      (fun seed -> optimize ~tracer (workload ~shape:Workload.Chain ~n:3 ~seed))
      [ 5; 6 ]
  in
  let spans = Obs.Trace.spans tracer in
  let ids = List.sort_uniq compare (List.map Obs.Trace.id spans) in
  Alcotest.(check int) "every span id distinct" (List.length spans) (List.length ids);
  Alcotest.(check int) "both runs traced"
    (List.fold_left
       (fun acc (r : Relmodel.Optimizer.result) -> acc + r.stats.Volcano.Search_stats.tasks)
       0 results)
    (List.length (List.filter (fun (sp : Obs.Trace.span) -> sp.sp_cat = "task") spans))

let test_double_close_raises () =
  let tracer = Obs.Trace.create () in
  let buf = Obs.Trace.buf tracer ~track:0 in
  let sp = Obs.Trace.open_span buf ~cat:"task" "x" in
  Obs.Trace.close sp;
  Alcotest.check_raises "second close refused"
    (Invalid_argument "Trace.close: span already closed") (fun () -> Obs.Trace.close sp)

(* Observability must never steer the search: the plan and cost are
   bit-identical with tracing/explain off and with both on. *)
let render (result : Relmodel.Optimizer.result) =
  match result.plan with
  | None -> "NONE"
  | Some p -> Printf.sprintf "%s|%.17g" (Relmodel.Optimizer.explain p) (Cost.total p.cost)

let test_observability_bit_identity () =
  List.iter
    (fun (shape, name, n, seed) ->
      let q = workload ~shape ~n ~seed in
      let base = render (optimize q) in
      Alcotest.(check bool) (name ^ ": base run finds a plan") true (base <> "NONE");
      Alcotest.(check string) (name ^ ": tracer+explain identical") base
        (render (optimize ~tracer:(Obs.Trace.create ()) ~explain:true q)))
    [
      (Workload.Chain, "chain n=4", 4, 23);
      (Workload.Star, "star n=5", 5, 105);
    ]

(* Property: on random workloads, the span tree of a finished run is
   well-formed and accounts for every task. *)
let prop_spans_well_formed =
  let gen =
    QCheck.Gen.(
      triple (oneofl [ Workload.Chain; Workload.Star ]) (int_range 2 4) (int_range 0 999))
  in
  Helpers.qcheck_case ~count:12 "span tree well-formed on random workloads"
    (QCheck.make gen) (fun (shape, n, seed) ->
      let q = workload ~shape ~n ~seed in
      let tracer = Obs.Trace.create () in
      let result = optimize ~tracer q in
      assert_well_formed
        (Printf.sprintf "shape=%s n=%d seed=%d"
           (match shape with Workload.Chain -> "chain" | _ -> "star")
           n seed)
        tracer result.stats;
      result.plan <> None)

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)
(* ------------------------------------------------------------------ *)

let test_chrome_trace_shape () =
  let q = workload ~shape:Workload.Star ~n:4 ~seed:104 in
  let tracer = Obs.Trace.create () in
  ignore (optimize ~tracer q : Relmodel.Optimizer.result);
  let parsed =
    match Obs.Json.of_string (Obs.Json.to_string (Obs.Chrome_trace.to_json tracer)) with
    | Ok j -> j
    | Error e -> Alcotest.failf "exported trace does not parse: %s" e
  in
  Alcotest.(check (option string)) "displayTimeUnit" (Some "ms")
    (Option.bind (Obs.Json.member "displayTimeUnit" parsed) Obs.Json.to_str);
  let events =
    match Option.bind (Obs.Json.member "traceEvents" parsed) Obs.Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "traceEvents missing or not an array"
  in
  Alcotest.(check int) "one event per span plus thread-row metadata"
    (Obs.Trace.total tracer + List.length (Obs.Trace.tracks tracer))
    (List.length events);
  let field name ev = Obs.Json.member name ev in
  let tids = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let ph =
        match Option.bind (field "ph" ev) Obs.Json.to_str with
        | Some ph -> ph
        | None -> Alcotest.fail "event without ph"
      in
      Alcotest.(check bool) "ph is X or M" true (ph = "X" || ph = "M");
      Alcotest.(check bool) "event has a name" true
        (Option.bind (field "name" ev) Obs.Json.to_str <> None);
      let tid =
        match Option.bind (field "tid" ev) Obs.Json.to_int with
        | Some tid -> tid
        | None -> Alcotest.fail "event without tid"
      in
      if ph = "X" then begin
        Hashtbl.replace tids tid ();
        let num name =
          match Option.bind (field name ev) Obs.Json.to_float with
          | Some v -> v
          | None -> Alcotest.failf "X event without %s" name
        in
        Alcotest.(check bool) "ts >= 0" true (num "ts" >= 0.);
        Alcotest.(check bool) "dur >= 0" true (num "dur" >= 0.);
        Alcotest.(check bool) "cat is task/goal/phase" true
          (match Option.bind (field "cat" ev) Obs.Json.to_str with
           | Some ("task" | "goal" | "phase") -> true
           | _ -> false)
      end)
    events;
  List.iter
    (fun row ->
      Alcotest.(check bool) (Printf.sprintf "row %d has events" row) true
        (Hashtbl.mem tids row))
    (Obs.Trace.tracks tracer)

(* ------------------------------------------------------------------ *)
(* EXPLAIN provenance                                                  *)
(* ------------------------------------------------------------------ *)

let test_explain_provenance () =
  let q = workload ~shape:Workload.Star ~n:4 ~seed:104 in
  let result = optimize ~explain:true q in
  let plan = match result.plan with Some p -> p | None -> Alcotest.fail "no plan" in
  let text = match result.explain with Some s -> s | None -> Alcotest.fail "no explain" in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  let contains needle hay =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let winners = List.filter (contains "rule=") lines in
  let alts = List.filter (contains "~ ") lines in
  (* One winner line per plan node, each with its cost breakdown. *)
  let rec plan_size (p : Relmodel.Optimizer.plan_node) =
    1 + List.fold_left (fun acc c -> acc + plan_size c) 0 p.children
  in
  Alcotest.(check int) "one provenance line per plan node" (plan_size plan)
    (List.length winners);
  List.iter
    (fun l ->
      Alcotest.(check bool) "winner line has cost" true (contains "cost " l);
      Alcotest.(check bool) "winner line has local cost" true (contains "local " l);
      Alcotest.(check bool) "winner line has its group" true (contains "group=" l))
    winners;
  (* The root line names the root algorithm. *)
  (match lines with
   | first :: _ ->
     Alcotest.(check bool) "root line names the root algorithm" true
       (contains (Physical.alg_name plan.alg) first)
   | [] -> Alcotest.fail "empty explain");
  (* Losing alternatives survive, with human-readable reasons. *)
  Alcotest.(check bool) "losing alternatives present" true (alts <> []);
  Alcotest.(check bool) "a losing reason is rendered" true
    (List.exists
       (fun l ->
         contains "completed" l || contains "bound exceeded" l || contains "pruned" l
         || contains "failed" l)
       alts)

let test_explain_off_by_default () =
  let q = workload ~shape:Workload.Chain ~n:3 ~seed:1 in
  let result = optimize q in
  Alcotest.(check bool) "no explain text unless requested" true (result.explain = None)

(* ------------------------------------------------------------------ *)
(* Plansrv latency quantiles and registry                              *)
(* ------------------------------------------------------------------ *)

let test_plansrv_latency_and_registry () =
  let catalog = Helpers.small_catalog () in
  let request =
    { (Relmodel.Optimizer.request catalog) with restore_columns = false }
  in
  let srv = Plansrv.create (Plansrv.config ~capacity:16 ~shards:2 request) in
  let w = Plansrv.worker srv in
  let q = Expr.(Logical.join (col "r.a" =% col "s.a") (Logical.get "r") (Logical.get "s")) in
  ignore (Plansrv.serve_one srv w q ~required:Phys_prop.any);
  for _ = 1 to 5 do
    ignore (Plansrv.serve_one srv w q ~required:Phys_prop.any)
  done;
  let m = Plansrv.metrics srv in
  let check_latency name (l : Plansrv.latency) =
    Alcotest.(check bool) (name ^ ": non-negative latencies") true (l.p50_ms >= 0.);
    Alcotest.(check bool) (name ^ ": quantiles ordered") true
      (l.p50_ms <= l.p95_ms && l.p95_ms <= l.p99_ms);
    Alcotest.(check bool) (name ^ ": p99 within observed max") true (l.p99_ms <= l.max_ms)
  in
  Alcotest.(check int) "one cold serve" 1 m.cold.count;
  Alcotest.(check int) "five warm serves" 5 m.warm.count;
  check_latency "cold" m.cold;
  check_latency "warm" m.warm;
  (* The registry surfaces the service and search counters. *)
  let text = Obs.Metrics.to_prometheus (Plansrv.registry srv) in
  let contains needle hay =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (Printf.sprintf "registry exports %s" name) true
        (contains name text))
    [
      "plansrv_requests 6";
      "plansrv_hits 5";
      "plansrv_misses 1";
      "plansrv_warm_latency_ms_count 5";
      "plansrv_cold_latency_ms_count 1";
      "volcano_search_tasks";
    ]

(* The sorted gauge names of the metrics exports. The MQO and feedback
   counters register beside the search's under the same prefix, and
   dashboards read these names: none may be dropped or renamed. *)
let search_gauges =
  List.map (( ^ ) "volcano_search_")
    [
      "anytime_improvements"; "enforcer_moves"; "failures"; "feedback_corrections";
      "feedback_drift_nodes"; "feedback_escapes"; "feedback_nodes_observed";
      "feedback_replans"; "feedback_runs"; "goal_hits"; "goal_misses"; "goals";
      "goals_pruned_lb"; "groups_created"; "input_limits_tightened"; "memo_fastpath_hits";
      "merges"; "mexprs_created"; "mqo_materialize_chosen"; "mqo_reuse_hits";
      "mqo_shared_groups"; "plans_costed"; "promise_evals"; "pruned"; "rule_firings";
      "stack_hwm"; "tasks_apply_enforcer"; "tasks_apply_transform"; "tasks_explore_group";
      "tasks_optimize_group"; "tasks_optimize_inputs"; "tasks_optimize_mexpr"; "tasks_total";
    ]

let plansrv_gauges =
  List.map (( ^ ) "plansrv_")
    [
      "entries"; "evictions"; "hits"; "invalidations"; "lockfree_hits"; "misses";
      "param_served"; "rejected"; "requests";
    ]
  @ search_gauges

let gauge_names reg =
  match Obs.Json.member "gauges" (Obs.Metrics.to_json reg) with
  | Some (Obs.Json.Obj fields) -> List.sort compare (List.map fst fields)
  | _ -> Alcotest.fail "no gauges object"

(* Registered as [volcano-cli optimize --metrics-out] registers them
   (less the profiler's rule gauges), and as [serve] and [batch] extend
   the plan service's registry. *)
let test_gauge_names_pinned () =
  let reg = Obs.Metrics.create () in
  Volcano.Search_stats.register reg (Volcano.Search_stats.create ());
  Mqo.register reg;
  Feedback.register reg (Feedback.counters ());
  Alcotest.(check (list string)) "optimize" search_gauges (gauge_names reg);
  let request = Relmodel.Optimizer.request (Helpers.small_catalog ()) in
  let reg = Plansrv.registry (Plansrv.create (Plansrv.config ~capacity:4 ~shards:1 request)) in
  Mqo.register reg;
  Feedback.register reg (Feedback.counters ());
  Alcotest.(check (list string)) "plan service" plansrv_gauges (gauge_names reg)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let test_flightrec_wraparound () =
  let fr = Obs.Flight_recorder.create ~capacity:8 () in
  Obs.Flight_recorder.recording fr (fun ring ->
      for i = 0 to 19 do
        Obs.Flight_recorder.record ring Obs.Flight_recorder.Task_begin ~group:i ~detail:i
      done);
  Alcotest.(check int) "recorded counts every event" 20 (Obs.Flight_recorder.recorded fr);
  Alcotest.(check int) "dropped = recorded - capacity" 12 (Obs.Flight_recorder.dropped fr);
  let events = Obs.Flight_recorder.events fr in
  Alcotest.(check int) "only capacity events survive" 8 (List.length events);
  (* The survivors are the newest 8 (details 12..19), oldest first. *)
  Alcotest.(check (list int)) "oldest surviving event first"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun (e : Obs.Flight_recorder.event) -> e.detail) events);
  let rec time_ordered = function
    | (a : Obs.Flight_recorder.event) :: (b :: _ as rest) ->
      a.ns <= b.Obs.Flight_recorder.ns && time_ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "events time-ordered" true (time_ordered events);
  (* A half-full ring keeps everything in insertion order. *)
  let fr2 = Obs.Flight_recorder.create ~capacity:8 () in
  Obs.Flight_recorder.recording fr2 (fun ring ->
      for i = 0 to 4 do
        Obs.Flight_recorder.record ring Obs.Flight_recorder.Publish ~group:i ~detail:i
      done);
  Alcotest.(check int) "no drops below capacity" 0 (Obs.Flight_recorder.dropped fr2);
  Alcotest.(check (list int)) "insertion order below capacity" [ 0; 1; 2; 3; 4 ]
    (List.map
       (fun (e : Obs.Flight_recorder.event) -> e.detail)
       (Obs.Flight_recorder.events fr2))

let test_flightrec_concurrent_writers () =
  let fr = Obs.Flight_recorder.create ~capacity:64 () in
  let holding = Atomic.make 0 in
  let domains =
    List.init 4 (fun w ->
        Domain.spawn (fun () ->
            (* Each writer holds its own ring: taking one is
               thread-safe, recording is single-writer lock-free. All
               four hold theirs at once before recording. *)
            Obs.Flight_recorder.recording fr (fun ring ->
                Atomic.incr holding;
                while Atomic.get holding < 4 do
                  Domain.cpu_relax ()
                done;
                for i = 0 to 999 do
                  Obs.Flight_recorder.record ring Obs.Flight_recorder.Publish ~group:w
                    ~detail:i
                done)))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "every record landed" 4000 (Obs.Flight_recorder.recorded fr);
  Alcotest.(check int) "drops account for the rest" (4 * (1000 - 64))
    (Obs.Flight_recorder.dropped fr);
  Alcotest.(check int) "one ring per concurrent writer" 4 (Obs.Flight_recorder.rings fr);
  let events = Obs.Flight_recorder.events fr in
  Alcotest.(check int) "each ring kept its capacity" (4 * 64) (List.length events);
  (* Per writer, the survivors are its newest 64 details. *)
  List.iter
    (fun w ->
      let mine =
        List.filter_map
          (fun (e : Obs.Flight_recorder.event) ->
            if e.group = w then Some e.detail else None)
          events
      in
      Alcotest.(check (list int))
        (Printf.sprintf "writer %d keeps its newest events in order" w)
        (List.init 64 (fun i -> 936 + i))
        (List.sort compare mine))
    [ 0; 1; 2; 3 ]

(* A finished search hands its ring back and the next one records on
   over it: however many optimizations share a recorder, one at a time
   they hold one ring, and the dump stays within capacity x rings. *)
let test_flightrec_rings_reused () =
  let fr = Obs.Flight_recorder.create ~capacity:16 () in
  for seed = 1 to 50 do
    ignore (optimize ~recorder:fr (workload ~shape:Workload.Chain ~n:3 ~seed))
  done;
  Alcotest.(check int) "50 optimizations leave 1 ring" 1 (Obs.Flight_recorder.rings fr);
  Alcotest.(check int) "the ring kept its newest events" 16
    (List.length (Obs.Flight_recorder.events fr));
  let j = Obs.Flight_recorder.to_json ~reason:"test" fr in
  let int name = Option.bind (Obs.Json.member name j) Obs.Json.to_int in
  Alcotest.(check (option int)) "the dump records its rings" (Some 1) (int "rings");
  Alcotest.(check (option int)) "recorded = surviving + dropped"
    (int "recorded")
    (Option.map (( + ) 16) (int "dropped"))

let test_flightrec_trigger_dump () =
  let path = Filename.temp_file "flightrec" ".json" in
  let fr = Obs.Flight_recorder.create ~capacity:16 ~path () in
  Obs.Flight_recorder.recording fr (fun ring ->
      for i = 0 to 9 do
        Obs.Flight_recorder.record ring Obs.Flight_recorder.Incumbent ~group:1 ~detail:i
      done);
  Alcotest.(check int) "no dump before a trigger" 0 (Obs.Flight_recorder.dumps fr);
  Obs.Flight_recorder.trigger fr ~reason:"test-abort";
  Alcotest.(check int) "trigger counted" 1 (Obs.Flight_recorder.dumps fr);
  Alcotest.(check string) "reason remembered" "test-abort"
    (Obs.Flight_recorder.last_reason fr);
  let j =
    match Obs.Json.read_file path with
    | Ok j -> j
    | Error e -> Alcotest.failf "post-mortem does not parse: %s" e
  in
  Sys.remove path;
  Alcotest.(check (option string)) "dump carries the reason" (Some "test-abort")
    (Option.bind (Obs.Json.member "reason" j) Obs.Json.to_str);
  Alcotest.(check (option int)) "dump carries the events" (Some 10)
    (Option.map List.length
       (Option.bind (Obs.Json.member "events" j) Obs.Json.to_list))

(* ------------------------------------------------------------------ *)
(* Search profiler                                                     *)
(* ------------------------------------------------------------------ *)

(* The attribution-parity invariant: the engine charges exactly one
   profiler task per executed task, so the per-entry task counts sum to
   the engine's total task counter. *)
let test_profiler_attribution_parity () =
  let q = workload ~shape:Workload.Star ~n:5 ~seed:105 in
  let profiler = Obs.Profile.create () in
  let result = optimize ~profiler q in
  Alcotest.(check bool) "found a plan" true (result.plan <> None);
  Alcotest.(check int) "per-rule tasks sum to the task counter"
    result.stats.Volcano.Search_stats.tasks
    (Obs.Profile.total_tasks profiler);
  let entries = Obs.Profile.report profiler in
  Alcotest.(check bool) "entries present" true (entries <> []);
  (* Someone won the root: plans_won attribution is live. *)
  Alcotest.(check bool) "plans won attributed" true
    (List.exists (fun (e : Obs.Profile.entry) -> e.plans_won > 0) entries);
  (* Transformation and implementation rules show up by name. *)
  Alcotest.(check bool) "rule entries present" true
    (List.exists (fun (e : Obs.Profile.entry) -> e.kind = Obs.Profile.Rule) entries);
  List.iter
    (fun (e : Obs.Profile.entry) ->
      if e.tasks < 0 || e.mexprs < 0 || e.plans_won < 0 || e.pruned < 0
         || e.wasted < 0 || Int64.compare e.ns 0L < 0
      then Alcotest.failf "negative counter for %s" e.name)
    entries

(* Profiler JSON and registry export shapes. *)
let test_profiler_export_shapes () =
  let q = workload ~shape:Workload.Chain ~n:4 ~seed:23 in
  let profiler = Obs.Profile.create () in
  let result = optimize ~profiler q in
  let j = Obs.Profile.to_json profiler in
  Alcotest.(check (option int)) "json total matches the engine"
    (Some result.stats.Volcano.Search_stats.tasks)
    (Option.bind (Obs.Json.member "total_tasks" j) Obs.Json.to_int);
  let entries =
    match Option.bind (Obs.Json.member "entries" j) Obs.Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "entries missing"
  in
  Alcotest.(check bool) "json entries present" true (entries <> []);
  let reg = Obs.Metrics.create () in
  Obs.Profile.register profiler reg;
  let text = Obs.Metrics.to_prometheus reg in
  let contains = Helpers.contains in
  Alcotest.(check bool) "rule_* gauges exported" true (contains text "rule_");
  Alcotest.(check bool) "per-rule task gauge exported" true (contains text "_tasks");
  (* Rows are ranked by measured time, so which entries make a top-k
     cut depends on timing: check content on the full table, and the
     bound on the cut one by its shape alone. *)
  let table top = Format.asprintf "%a" (Obs.Profile.pp_table ~top) profiler in
  let full = table (List.length entries) in
  Alcotest.(check bool) "table has a header" true (contains full "tasks");
  Alcotest.(check bool) "table mentions a rule" true (contains full "rule");
  let lines = String.split_on_char '\n' (String.trim (table 5)) in
  Alcotest.(check bool) "more than five entries to cut" true (List.length entries > 5);
  Alcotest.(check int) "header, five rows, and a remainder line" 7 (List.length lines);
  Alcotest.(check string) "remainder line counts the cut rows"
    (Printf.sprintf "... and %d more" (List.length entries - 5))
    (List.nth lines 6)

(* A profile of [n] rule entries, two enforcers and an operator,
   charged directly on a buffer of its own. *)
let charge_profile pr n =
  let b = Obs.Profile.buf pr in
  Obs.Profile.writing b (fun () ->
      for i = 0 to n - 1 do
        let c = Obs.Profile.cell b Obs.Profile.Rule (Printf.sprintf "r%04d" i) in
        for _ = 0 to i mod 5 do
          Obs.Profile.task c ~ns:(1000 * (i mod 17))
        done;
        Obs.Profile.mexprs c (i mod 3);
        if i mod 4 = 0 then Obs.Profile.plan_won c;
        Obs.Profile.wasted c (i mod 2)
      done;
      List.iter
        (fun name -> Obs.Profile.task (Obs.Profile.cell b Obs.Profile.Enforcer name) ~ns:500)
        [ "sort"; "exchange" ];
      Obs.Profile.task (Obs.Profile.cell b Obs.Profile.Operator "hash_join") ~ns:1)

(* The rule gauges as [Obs.Profile.register] once built them: every
   read merges a whole report and scans it. The reference for gauges
   that share one report per export (names here need no sanitizing). *)
let register_per_read pr reg =
  List.iter
    (fun (e : Obs.Profile.entry) ->
      let base =
        match e.kind with
        | Obs.Profile.Rule -> "rule_" ^ e.name
        | Obs.Profile.Enforcer -> "rule_enforcer_" ^ e.name
        | Obs.Profile.Operator | Obs.Profile.Engine -> ""
      in
      if base <> "" then
        List.iter
          (fun (suffix, pick) ->
            Obs.Metrics.gauge reg
              ~help:
                (Printf.sprintf "profiler %s for %s %s" suffix (Obs.Profile.kind_name e.kind)
                   e.name)
              (base ^ "_" ^ suffix)
              (fun () ->
                match
                  List.find_opt
                    (fun (x : Obs.Profile.entry) -> x.kind = e.kind && x.name = e.name)
                    (Obs.Profile.report pr)
                with
                | Some x -> pick x
                | None -> 0.))
          [
            ("tasks", fun (x : Obs.Profile.entry) -> float_of_int x.tasks);
            ("mexprs", fun x -> float_of_int x.mexprs);
            ("plans_won", fun x -> float_of_int x.plans_won);
            ("wasted", fun x -> float_of_int x.wasted);
            ("time_ms", fun x -> Int64.to_float x.ns /. 1e6);
          ])
    (Obs.Profile.report pr)

(* A scrape of the rule gauges merges one report, not one per gauge,
   and exports what per-read gauges export, byte for byte. *)
let test_profiler_scrape_one_report () =
  let pr = Obs.Profile.create () in
  charge_profile pr 200;
  let reg = Obs.Metrics.create () and reference = Obs.Metrics.create () in
  Obs.Profile.register pr reg;
  register_per_read pr reference;
  let exports = ref 0 in
  Obs.Metrics.before_export reg (fun () -> incr exports);
  let same msg =
    Alcotest.(check string) (msg ^ ": prometheus") (Obs.Metrics.to_prometheus reference)
      (Obs.Metrics.to_prometheus reg);
    Alcotest.(check string) (msg ^ ": json")
      (Obs.Json.to_string (Obs.Metrics.to_json reference))
      (Obs.Json.to_string (Obs.Metrics.to_json reg))
  in
  same "identical to per-read gauges";
  Alcotest.(check int) "each export runs the hooks once" 2 !exports;
  (* The gauges track the profile: charges after registration show. *)
  charge_profile pr 10;
  same "identical after more charges";
  let text = Obs.Metrics.to_prometheus reg in
  Alcotest.(check bool) "new charges exported" true (Helpers.contains text "rule_r0004_tasks 10\n");
  (* 1,729 entries, as a clique-6 optimization records: merging a
     report per gauge read took over 10 s for one scrape. *)
  let big = Obs.Profile.create () in
  charge_profile big 1729;
  let reg = Obs.Metrics.create () in
  Obs.Profile.register big reg;
  let t0 = Obs.Clock.now_ns () in
  let text = Obs.Metrics.to_prometheus reg in
  let ms = Obs.Clock.span_ms ~since:t0 (Obs.Clock.now_ns ()) in
  Alcotest.(check bool) "every entry exported" true (Helpers.contains text "rule_r1728_time_ms ");
  if ms > 2000. then Alcotest.failf "scraping 1,729 entries took %.0f ms" ms

(* Observability stays plan-inert with the profiler and the flight
   recorder attached. *)
let test_profiling_bit_identity () =
  List.iter
    (fun (shape, name, n, seed) ->
      let q = workload ~shape ~n ~seed in
      let base = render (optimize q) in
      Alcotest.(check bool) (name ^ ": base run finds a plan") true (base <> "NONE");
      Alcotest.(check string) (name ^ ": profiled run identical") base
        (render
           (optimize ~profiler:(Obs.Profile.create ())
              ~recorder:(Obs.Flight_recorder.create ~capacity:128 ())
              q)))
    [
      (Workload.Chain, "chain n=4", 4, 23);
      (Workload.Star, "star n=5", 5, 105);
    ]

(* Property: profiling and flight recording never change the plan, and
   attribution parity holds, on random workloads. *)
let prop_profile_plan_inert =
  let gen =
    QCheck.Gen.(
      triple (oneofl [ Workload.Chain; Workload.Star ]) (int_range 2 4) (int_range 0 999))
  in
  Helpers.qcheck_case ~count:12 "profiling is plan-inert on random workloads"
    (QCheck.make gen) (fun (shape, n, seed) ->
      let q = workload ~shape ~n ~seed in
      let plain = render (optimize q) in
      let profiler = Obs.Profile.create () in
      let recorder = Obs.Flight_recorder.create ~capacity:64 () in
      let result = optimize ~profiler ~recorder q in
      plain = render result
      && Obs.Profile.total_tasks profiler = result.stats.Volcano.Search_stats.tasks)

(* Every count column of the profile report on fixed queries matches
   the golden listing ({!Golden_profile}): attribution is a function of
   the search alone, whatever the recording mechanism. *)
let test_profile_golden () =
  let b = Buffer.create 65536 in
  List.iter
    (fun (shape, label) ->
      let q = workload ~shape ~n:5 ~seed:1705 in
      let profiler = Obs.Profile.create () in
      let result = optimize ~profiler q in
      let key (e : Obs.Profile.entry) = (Obs.Profile.kind_name e.kind, e.name) in
      let entries =
        List.sort (fun a b -> compare (key a) (key b)) (Obs.Profile.report profiler)
      in
      Printf.bprintf b "== %s tasks=%d entries=%d\n" label
        result.stats.Volcano.Search_stats.tasks (List.length entries);
      List.iter
        (fun (e : Obs.Profile.entry) ->
          Printf.bprintf b "%s|%s|%d|%d|%d|%d|%d\n" (Obs.Profile.kind_name e.kind)
            e.name e.tasks e.mexprs e.plans_won e.pruned e.wasted)
        entries)
    [ (Workload.Chain, "chain5"); (Workload.Star, "star5"); (Workload.Clique, "clique5") ];
  let got = String.split_on_char '\n' (Buffer.contents b) in
  let want = String.split_on_char '\n' Golden_profile.expected in
  List.iteri
    (fun i w ->
      match List.nth_opt got i with
      | Some g when g = w -> ()
      | g -> Alcotest.failf "line %d: want %S, got %S" (i + 1) w (Option.value g ~default:"<end>"))
    want;
  Alcotest.(check int) "line count" (List.length want) (List.length got)

(* A finished writer's counts fold into the collector, so the live
   buffer count stays bounded by the writers running now — here none —
   however many sessions the service renews. Each catalog change makes
   the plan service renew its worker's session (a fresh searcher and
   profiler buffer). *)
let test_profile_buffers_fold () =
  let catalog = Helpers.small_catalog () in
  let profiler = Obs.Profile.create () in
  let request =
    { (Relmodel.Optimizer.request catalog) with
      restore_columns = false;
      profiler = Some profiler }
  in
  let srv = Plansrv.create (Plansrv.config ~capacity:16 ~shards:2 request) in
  let w = Plansrv.worker srv in
  let q =
    Expr.(
      Logical.join (col "s.c" =% col "t.c")
        (Logical.join (col "r.a" =% col "s.a") (Logical.get "r") (Logical.get "s"))
        (Logical.get "t"))
  in
  for i = 1 to 50 do
    Catalog.update_stats catalog ~table:"r" ();
    let resp = Plansrv.serve_one srv w q ~required:Phys_prop.any in
    Alcotest.(check bool) (Printf.sprintf "renewal %d planned" i) true (resp.plan <> None);
    Alcotest.(check int) (Printf.sprintf "renewal %d: no live buffer" i) 0
      (Obs.Profile.live_buffers profiler)
  done;
  Alcotest.(check int) "folded tasks equal the service's task counter"
    (Plansrv.metrics srv).search.Volcano.Search_stats.tasks
    (Obs.Profile.total_tasks profiler)

(* Machine-neutral cost gate: the minor-heap words the profiler adds to
   one fixed optimization, per executed task. Charging a task must not
   allocate; what remains is building each distinct name once. *)
let test_profiler_allocation () =
  let q = workload ~shape:Workload.Clique ~n:5 ~seed:1705 in
  let words profiled =
    let profiler = if profiled then Some (Obs.Profile.create ()) else None in
    let w0 = Gc.minor_words () in
    let result = optimize ?profiler q in
    (Gc.minor_words () -. w0, result.stats.Volcano.Search_stats.tasks)
  in
  ignore (words false);
  ignore (words true);
  let off, tasks = words false in
  let on, _ = words true in
  let per_task = (on -. off) /. float_of_int tasks in
  if per_task > 4. then
    Alcotest.failf "profiler allocates %.2f words per task (bound 4)" per_task

(* ------------------------------------------------------------------ *)
(* Plansrv slow-query log and status                                   *)
(* ------------------------------------------------------------------ *)

let test_plansrv_slow_log_and_status () =
  let catalog = Helpers.small_catalog () in
  let request =
    { (Relmodel.Optimizer.request catalog) with restore_columns = false }
  in
  (* Threshold 0: every response is "slow", so the log fills. *)
  let srv = Plansrv.create (Plansrv.config ~capacity:16 ~shards:2 ~slow_ms:0. request) in
  let w = Plansrv.worker srv in
  let q = Expr.(Logical.join (col "r.a" =% col "s.a") (Logical.get "r") (Logical.get "s")) in
  ignore (Plansrv.serve_one srv w q ~required:Phys_prop.any);
  ignore (Plansrv.serve_one srv w q ~required:Phys_prop.any);
  let log = Plansrv.slow_log srv in
  Alcotest.(check int) "both responses logged" 2 (List.length log);
  (match log with
   | [ miss; hit ] ->
     Alcotest.(check string) "first entry is the miss" "miss" miss.Plansrv.sq_outcome;
     Alcotest.(check string) "second entry is the hit" "hit" hit.Plansrv.sq_outcome;
     Alcotest.(check bool) "miss carries EXPLAIN provenance" true
       (miss.Plansrv.sq_explain <> None);
     Alcotest.(check bool) "fingerprints agree" true
       (miss.Plansrv.sq_fingerprint = hit.Plansrv.sq_fingerprint)
   | _ -> Alcotest.fail "expected exactly two slow entries");
  (* JSON views parse and carry the headline numbers. *)
  let slow_j = Plansrv.slow_log_json srv in
  Alcotest.(check (option int)) "slow log JSON counts entries" (Some 2)
    (Option.map List.length
       (Option.bind (Obs.Json.member "entries" slow_j) Obs.Json.to_list));
  let status = Plansrv.status_json srv in
  let field name = Option.bind (Obs.Json.member name status) Obs.Json.to_int in
  Alcotest.(check (option int)) "status requests" (Some 2) (field "requests");
  Alcotest.(check (option int)) "status hits" (Some 1) (field "hits");
  Alcotest.(check (option int)) "status rejected" (Some 0) (field "rejected");
  Alcotest.(check (option int)) "status slow occupancy" (Some 2) (field "slow_logged");
  (* A raised threshold leaves fast responses out of the log. *)
  let srv2 =
    Plansrv.create (Plansrv.config ~capacity:16 ~shards:2 ~slow_ms:60_000. request)
  in
  let w2 = Plansrv.worker srv2 in
  ignore (Plansrv.serve_one srv2 w2 q ~required:Phys_prop.any);
  Alcotest.(check int) "fast responses stay out of the log" 0
    (List.length (Plansrv.slow_log srv2))

let suite =
  [
    Alcotest.test_case "json roundtrip and accessors" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse errors" `Quick test_json_errors;
    Alcotest.test_case "counters and gauges" `Quick test_metrics_counters_and_gauges;
    Alcotest.test_case "histogram quantiles conservative" `Quick test_histogram_quantiles;
    Alcotest.test_case "metrics JSON shape" `Quick test_metrics_json_shape;
    Alcotest.test_case "sequential span tree well-formed" `Quick test_span_tree_sequential;
    Alcotest.test_case "a span closes exactly once" `Quick test_double_close_raises;
    Alcotest.test_case "span ids unique across buffers" `Quick
      test_span_ids_unique_across_buffers;
    Alcotest.test_case "observability never changes the plan" `Quick
      test_observability_bit_identity;
    prop_spans_well_formed;
    Alcotest.test_case "chrome trace export shape" `Quick test_chrome_trace_shape;
    Alcotest.test_case "explain provenance" `Quick test_explain_provenance;
    Alcotest.test_case "explain off by default" `Quick test_explain_off_by_default;
    Alcotest.test_case "plansrv latency quantiles and registry" `Quick
      test_plansrv_latency_and_registry;
    Alcotest.test_case "exported gauge names pinned" `Quick test_gauge_names_pinned;
    Alcotest.test_case "flight recorder ring wraparound" `Quick test_flightrec_wraparound;
    Alcotest.test_case "flight recorder concurrent writers" `Quick
      test_flightrec_concurrent_writers;
    Alcotest.test_case "flight recorder trigger dump" `Quick test_flightrec_trigger_dump;
    Alcotest.test_case "flight recorder rings reused" `Quick test_flightrec_rings_reused;
    Alcotest.test_case "profiler attribution parity" `Quick
      test_profiler_attribution_parity;
    Alcotest.test_case "profiler export shapes" `Quick test_profiler_export_shapes;
    Alcotest.test_case "profiler scrape merges one report" `Quick test_profiler_scrape_one_report;
    Alcotest.test_case "profiling never changes the plan" `Quick
      test_profiling_bit_identity;
    prop_profile_plan_inert;
    Alcotest.test_case "profile attribution golden" `Quick test_profile_golden;
    Alcotest.test_case "profile buffers fold on session renewal" `Quick
      test_profile_buffers_fold;
    Alcotest.test_case "profiler allocation per task" `Quick test_profiler_allocation;
    Alcotest.test_case "plansrv slow log and status" `Quick
      test_plansrv_slow_log_and_status;
  ]
