(* Benchmark harness: the paper's evaluation (Figure 4 and the ablations
   A1-A10 of DESIGN.md) and the subsystem reports, each written as one
   BENCH_*.json in the report schema below.

     dune exec bench/main.exe              -- every target
     dune exec bench/main.exe -- paper     -- Figure 4 and A1-A10     (BENCH_paper.json)
     dune exec bench/main.exe -- plansrv   -- plan-cache service      (BENCH_plansrv.json)
     dune exec bench/main.exe -- pruning   -- guided-pruning ablation (BENCH_pruning.json)
     dune exec bench/main.exe -- obs       -- observability overhead  (BENCH_obs.json)
     dune exec bench/main.exe -- mqo       -- multi-query optimization (BENCH_mqo.json)
     dune exec bench/main.exe -- feedback  -- runtime cardinality feedback (BENCH_feedback.json)
     dune exec bench/main.exe -- scaleup   -- anytime search on large join graphs (BENCH_scaleup.json)

   A trailing [smoke] runs small sizes, writes the reports under _smoke/
   (never over a committed report), and exits nonzero when a gate
   fails; [full] runs paper-sized counts everywhere. An unknown target
   name is a usage error (exit 2).

   Absolute times are machine-dependent (the paper used a ~12 MIPS
   SparcStation-1); shapes, ratios, and crossovers are what EXPERIMENTS.md
   compares. *)

open Relalg

let seed_base = 20260708

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. Float.of_int (List.length xs)

let geomean = function
  | [] -> nan
  | xs -> exp (mean (List.map log xs))

(* ------------------------------------------------------------------ *)
(* Reports: the one schema every BENCH_*.json is written in.           *)
(* ------------------------------------------------------------------ *)

(* A report holds cells, each keyed by its identity (workload,
   relations, required property, sharing, workers, ...) and holding
   one record per arm. An arm's [counters] are machine-neutral (tasks,
   plan costs, pruning/memo/MQO/feedback counts, flags) and reproduce
   exactly on any machine; its [timings] (wall clock, slowdowns, rates)
   vary from run to run and are not compared across reports; [extras]
   carry structured per-arm data such as an anytime curve. Named boolean
   gates hold the run's correctness claims, headlines its summary
   numbers. tools/bench_diff matches cells across reports by key and
   tools/validate_obs checks this shape. *)

type mode = Smoke | Default | Full

type arm = {
  arm : string;
  counters : (string * Obs.Json.t) list;
  timings : (string * float) list;
  extras : (string * Obs.Json.t) list;
}

type cell = { key : (string * Obs.Json.t) list; arms : arm list }

type report = {
  bench : string;
  gates : gates;
  headlines : (string * float) list;
  cells : cell list;
}

(* Each named gate holds until a check under it fails; every failed
   check keeps its message for the log. *)
and gates = { mutable verdicts : (string * bool) list; mutable failures : string list }

let new_gates () = { verdicts = []; failures = [] }

let check g name ok fmt =
  Printf.ksprintf
    (fun msg ->
      (if List.mem_assoc name g.verdicts then
         g.verdicts <-
           List.map (fun (n, v) -> (n, if n = name then v && ok else v)) g.verdicts
       else g.verdicts <- g.verdicts @ [ (name, ok) ]);
      if not ok then g.failures <- msg :: g.failures)
    fmt

let arm ?(timings = []) ?(extras = []) name counters =
  { arm = name; counters; timings; extras }

let int = Obs.Json.int

let num x = Obs.Json.Num x

let str s = Obs.Json.Str s

let bool b = Obs.Json.Bool b

let opt_int = function None -> Obs.Json.Null | Some t -> int t

(* Smoke runs never overwrite a committed report. *)
let smoke_dir = "_smoke"

(* One line per arm, so a regenerated report diffs line by line. *)
let render mode r =
  let open Obs.Json in
  let fields kvs = to_string (Obj kvs) in
  let round3 x = Float.round (x *. 1000.) /. 1000. in
  let arm_line a =
    fields
      ([ ("arm", Str a.arm); ("counters", Obj a.counters);
         ("timings", Obj (List.map (fun (k, v) -> (k, Num (round3 v))) a.timings)) ]
      @ a.extras)
  in
  let cell_lines c =
    Printf.sprintf "  {\"key\":%s,\"arms\":[\n    %s]}" (fields c.key)
      (String.concat ",\n    " (List.map arm_line c.arms))
  in
  Printf.sprintf
    "{\"bench\":%s,\"mode\":%s,\"cores\":%d,\n\"gates\":%s,\n\"headlines\":%s,\n\"cells\":[\n%s]}\n"
    (to_string (Str r.bench))
    (to_string
       (Str (match mode with Smoke -> "smoke" | Default -> "default" | Full -> "full")))
    (Domain.recommended_domain_count ())
    (fields (List.map (fun (k, v) -> (k, Bool v)) r.gates.verdicts))
    (fields (List.map (fun (k, v) -> (k, Num (round3 v))) r.headlines))
    (String.concat ",\n" (List.map cell_lines r.cells))

(* Print and write the report (smoke runs into [smoke_dir]), list the
   failed checks, and exit nonzero in smoke mode when a gate failed. *)
let finish mode r =
  let dir = if mode = Smoke then smoke_dir else "." in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir ("BENCH_" ^ r.bench ^ ".json") in
  let text = render mode r in
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  Printf.printf "%s\n  wrote %s\n%!" text path;
  if r.gates.failures <> [] then begin
    List.iter (Printf.printf "  FAIL: %s\n") (List.rev r.gates.failures);
    if mode = Smoke then exit 1
  end

(* Plans compare as their EXPLAIN text plus the 17-digit total cost. *)
let render_plan (plan : Relmodel.Optimizer.plan_node option) =
  match plan with
  | None -> "NONE"
  | Some p -> Printf.sprintf "%s|%.17g" (Relmodel.Optimizer.explain p) (Cost.total p.cost)

let plan_cost (plan : Relmodel.Optimizer.plan_node option) =
  match plan with Some p -> num (Cost.total p.cost) | None -> Obs.Json.Null

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted -> List.nth sorted (List.length sorted / 2)

(* ------------------------------------------------------------------ *)
(* PLANSRV: the plan-cache service under a repeated workload — warm    *)
(* hits vs cold optimizations, and concurrent serving throughput.      *)
(* ------------------------------------------------------------------ *)

let plansrv_bench mode =
  let replays = if mode = Full then 100 else 50 in
  (* 20 distinct queries over one catalog: the same 5-relation chain
     under 20 different selection constants — the shape of a
     parameterized application workload. *)
  let base = Workload.generate (Workload.spec ~n_relations:5 ~seed:(seed_base + 1100) ()) in
  let catalog = base.catalog in
  let first_col = List.hd base.relations ^ ".jk1" in
  let uniques =
    List.init 20 (fun i ->
        Logical.select Expr.(col first_col >=% int (2 * i)) base.logical)
  in
  let n_unique = List.length uniques in
  (* The request stream: every unique query replayed [replays] times, in
     a deterministically shuffled order. *)
  let rng = Random.State.make [| seed_base + 1101 |] in
  let stream = Array.concat (List.init replays (fun _ -> Array.of_list uniques)) in
  let n = Array.length stream in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = stream.(i) in
    stream.(i) <- stream.(j);
    stream.(j) <- tmp
  done;
  let request =
    { (Relmodel.Optimizer.request catalog) with restore_columns = false }
  in
  let gates = new_gates () in
  let key path workers =
    [ ("path", str path); ("unique_queries", int n_unique); ("replays", int replays);
      ("workers", int workers) ]
  in
  (* Latency profile on one worker: per-response latency is measured
     inside the service. *)
  let srv = Plansrv.create (Plansrv.config request) in
  let w = Plansrv.worker srv in
  let responses =
    Array.map (fun q -> Plansrv.serve_one srv w q ~required:Phys_prop.any) stream
  in
  let latencies outcome =
    Array.to_list responses
    |> List.filter_map (fun (r : Plansrv.response) ->
           if r.outcome = outcome then Some r.latency_ms else None)
  in
  let cold = latencies Plansrv.Miss and warm = latencies Plansrv.Hit in
  let m = Plansrv.metrics srv in
  let cold_med = median cold and warm_med = median warm in
  let speedup = cold_med /. warm_med in
  let hit_rate = Float.of_int m.hits /. Float.of_int m.requests in
  check gates "one_miss_per_unique_query" (m.misses = n_unique)
    "serve_one: %d misses for %d unique queries" m.misses n_unique;
  let latency_cell =
    {
      key = key "serve_one" 1;
      arms =
        [
          arm "serve"
            [ ("requests", int m.requests); ("hits", int m.hits); ("misses", int m.misses);
              ("evictions", int m.evictions); ("entries", int m.entries) ]
            ~timings:
              [ ("cold_median_ms", cold_med); ("cold_mean_ms", mean cold);
                ("warm_median_ms", warm_med); ("warm_mean_ms", mean warm) ];
        ];
    }
  in
  (* Concurrent throughput: per worker count, a cold run on a fresh
     service (at more than one worker its misses count duplicated
     optimizations from workers missing on the same key, which varies
     from run to run) and a second, fully warmed run over the same
     stream. Domains beyond the available cores only add scheduling and
     GC-synchronization overhead, so read the scaling against the
     report's core count. *)
  let batch = Array.map (fun q -> (q, Phys_prop.any)) stream in
  let throughput_cells =
    List.map
      (fun workers ->
        let srv = Plansrv.create (Plansrv.config request) in
        let dt_cold, _ = time_it (fun () -> ignore (Plansrv.serve ~workers srv batch)) in
        let misses = (Plansrv.metrics srv).misses in
        let before_warm = (Plansrv.metrics srv).hits in
        let dt_warm, _ = time_it (fun () -> ignore (Plansrv.serve ~workers srv batch)) in
        (* Every request of the warmed pass must have been a hit, and a
           hit reads the published cache map without locking: that is
           the machine-neutral signal that warm throughput scales with
           workers even on a single-core container. *)
        let lockfree = (Plansrv.metrics srv).hits - before_warm in
        let rps = Float.of_int n /. dt_warm in
        check gates "warm_pass_lockfree" (lockfree = n)
          "%d workers: %d of %d warm requests served lock-free" workers lockfree n;
        if workers = 1 then
          check gates "one_miss_per_unique_query" (misses = n_unique)
            "serve, 1 worker: %d misses for %d unique queries" misses n_unique;
        let cold_misses = ("cold_misses", Float.of_int misses) in
        {
          key = key "serve" workers;
          arms =
            [
              arm "serve"
                ((if workers = 1 then [ ("cold_misses", int misses) ] else [])
                @ [ ("warm_lockfree_hits", int lockfree) ])
                ~timings:
                  ([ ("cold_wall_ms", dt_cold *. 1000.) ]
                  @ (if workers = 1 then [] else [ cold_misses ])
                  @ [ ("warm_wall_ms", dt_warm *. 1000.); ("warm_req_per_s", rps) ]);
            ];
        })
      (if mode = Smoke then [ 1; 2 ] else [ 1; 2; 4 ])
  in
  finish mode
    {
      bench = "plansrv";
      gates;
      headlines = [ ("hit_rate", hit_rate); ("median_speedup", speedup) ];
      cells = latency_cell :: throughput_cells;
    }

(* ------------------------------------------------------------------ *)
(* PRUNING  Guided-pruning ablation                                     *)
(* ------------------------------------------------------------------ *)

(* Three arms over the same workloads: no pruning at all, plain
   Figure-2 branch-and-bound, and Figure 2 plus the guided layer
   (group cost lower bounds driving goal kills, doomed-move
   projections, and sibling-aware input limits). The winning plan must
   be bit-identical across every arm; total engine tasks are the
   machine-independent work measure. *)
let pruning_bench mode =
  let reps = if mode = Smoke then 1 else 3 in
  let sizes =
    match mode with Smoke -> [ 4; 5 ] | Default -> [ 5; 6; 7 ] | Full -> [ 5; 6; 7; 8 ]
  in
  let workloads =
    List.concat_map
      (fun n -> [ (Workload.Chain, "chain", n); (Workload.Star, "star", n) ])
      sizes
  in
  let arms = [ ("none", false, false); ("figure2", true, false); ("guided", true, true) ] in
  let gates = new_gates () in
  (* Star totals per arm for the headline: tasks and lower-bound kills. *)
  let star_tasks = Hashtbl.create 3 and star_lb = ref 0 in
  let cells =
    List.concat_map
      (fun (shape, name, n) ->
        let q =
          Workload.generate
            (Workload.spec ~shape ~n_relations:n ~seed:(seed_base + (1300 * n)) ())
        in
        let requireds =
          [
            ("any", Phys_prop.any);
            ("sorted", Phys_prop.sorted (Sort_order.asc [ List.hd q.relations ^ ".jk1" ]));
          ]
        in
        List.map
          (fun (rname, required) ->
            let measure ~pruning ~guided =
              let request =
                {
                  (Relmodel.Optimizer.request q.catalog) with
                  restore_columns = false;
                  pruning;
                  guided_pruning = guided;
                }
              in
              let best = ref infinity and last = ref None in
              for _ = 1 to reps do
                let dt, r =
                  time_it (fun () ->
                      Relmodel.Optimizer.optimize request q.logical ~required)
                in
                if dt < !best then best := dt;
                last := Some r
              done;
              (!best *. 1000., Option.get !last)
            in
            let baseline = ref "" in
            let cell_arms =
              List.map
                (fun (arm_name, pruning, guided) ->
                  let ms, r = measure ~pruning ~guided in
                  let rendered = render_plan r.plan in
                  if arm_name = "none" then baseline := rendered;
                  let identical = rendered = !baseline in
                  check gates "arms_identical" identical
                    "%s n=%d %s: arm %s diverges from no-pruning plan" name n rname arm_name;
                  let s = r.stats in
                  if name = "star" then begin
                    Hashtbl.replace star_tasks arm_name
                      (s.tasks + Option.value (Hashtbl.find_opt star_tasks arm_name) ~default:0);
                    if arm_name = "guided" then star_lb := !star_lb + s.goals_pruned_lb
                  end;
                  arm arm_name
                    [ ("tasks", int s.tasks); ("goals_pruned_lb", int s.goals_pruned_lb);
                      ("input_limits_tightened", int s.input_limits_tightened);
                      ("memo_fastpath_hits", int s.memo_fastpath_hits);
                      ("plan_cost", plan_cost r.plan) ]
                    ~timings:[ ("wall_ms", ms) ])
                arms
            in
            {
              key = [ ("workload", str name); ("relations", int n); ("required", str rname) ];
              arms = cell_arms;
            })
          requireds)
      workloads
  in
  let f2 = Hashtbl.find star_tasks "figure2" and guided = Hashtbl.find star_tasks "guided" in
  let reduction = 100. *. (1. -. (Float.of_int guided /. Float.of_int f2)) in
  check gates "star_lb_pruning" (!star_lb > 0)
    "star workload: guided arm never pruned on a lower bound";
  finish mode
    {
      bench = "pruning";
      gates;
      headlines =
        [ ("star_task_reduction_pct", reduction);
          ("star_goals_pruned_lb", Float.of_int !star_lb) ];
      cells;
    }

(* ------------------------------------------------------------------ *)
(* OBS  Observability overhead                                          *)
(* ------------------------------------------------------------------ *)

(* Five arms over the same workloads: observability off, span tracing
   on (one span per engine task plus goal spans), tracing
   plus EXPLAIN alternative recording, the per-rule profiler, and the
   profiler plus the flight-recorder ring. The winning plan must stay
   bit-identical across all arms — observability may cost time but must
   never steer the search — the traced arm's span counts must equal the
   engine's task counters, and the profiled arms' per-rule task sums
   must equal the same counters (trace and profile are each a complete
   account of the work). The overhead gates are generous (4x tracing,
   2x profiled) because CI machines are noisy and smoke sizes tiny. *)
let obs_bench mode =
  let sizes = match mode with Smoke -> [ 4; 5 ] | Default -> [ 5; 6 ] | Full -> [ 5; 6; 7 ] in
  let reps = if mode = Smoke then 3 else 7 in
  let workloads =
    List.concat_map
      (fun n -> [ (Workload.Chain, "chain", n); (Workload.Star, "star", n) ])
      sizes
  in
  let gates = new_gates () in
  let arm_names = [ "off"; "trace"; "trace+explain"; "profile"; "profile+flightrec" ] in
  let slowdowns = Hashtbl.create 5 in
  let cells =
    List.map
      (fun (shape, name, n) ->
        let q =
          Workload.generate
            (Workload.spec ~shape ~n_relations:n ~seed:(seed_base + (1700 * n)) ())
        in
        let measure ~arm =
          (* Fresh collectors per run: buffers are per-optimization. *)
          let samples = ref []
          and last = ref None
          and last_tracer = ref None
          and last_profiler = ref None in
          for _ = 1 to reps do
            let tracer =
              if arm = "trace" || arm = "trace+explain" then
                Some (Obs.Trace.create ())
              else None
            in
            let profiler =
              if arm = "profile" || arm = "profile+flightrec" then
                Some (Obs.Profile.create ())
              else None
            in
            let recorder =
              if arm = "profile+flightrec" then
                Some (Obs.Flight_recorder.create ())
              else None
            in
            let request =
              {
                (Relmodel.Optimizer.request q.catalog) with
                restore_columns = false;
                tracer;
                profiler;
                recorder;
                explain = arm = "trace+explain";
              }
            in
            let dt, r =
              time_it (fun () ->
                  Relmodel.Optimizer.optimize request q.logical
                    ~required:Phys_prop.any)
            in
            samples := (dt *. 1000.) :: !samples;
            last := Some r;
            last_tracer := tracer;
            last_profiler := profiler
          done;
          (median !samples, Option.get !last, !last_tracer, !last_profiler)
        in
        let base_ms, base_r, _, _ = measure ~arm:"off" in
        let baseline = render_plan base_r.plan in
        let cell_arms =
          List.map
            (fun arm_name ->
              let ms, r, tracer, profiler =
                if arm_name = "off" then (base_ms, base_r, None, None)
                else measure ~arm:arm_name
              in
              let tasks = r.stats.Volcano.Search_stats.tasks in
              check gates "plans_identical" (render_plan r.plan = baseline)
                "%s n=%d: arm %s diverges from the untraced plan" name n arm_name;
              let spans, task_spans =
                match tracer with
                | None -> (0, 0)
                | Some tr ->
                  ( Obs.Trace.total tr,
                    List.length
                      (List.filter
                         (fun (sp : Obs.Trace.span) -> sp.Obs.Trace.sp_cat = "task")
                         (Obs.Trace.spans tr)) )
              in
              if tracer <> None then
                check gates "span_parity" (task_spans = tasks)
                  "%s n=%d: arm %s recorded %d task spans for %d tasks" name n arm_name
                  task_spans tasks;
              Option.iter
                (fun pr ->
                  let total = Obs.Profile.total_tasks pr in
                  check gates "attribution_parity" (total = tasks)
                    "%s n=%d: arm %s attributed %d tasks for %d executed" name n arm_name
                    total tasks)
                profiler;
              let slowdown = ms /. base_ms in
              if arm_name <> "off" then
                Hashtbl.replace slowdowns arm_name
                  (slowdown
                  :: Option.value (Hashtbl.find_opt slowdowns arm_name) ~default:[]);
              arm arm_name
                [ ("tasks", int tasks); ("spans", int spans) ]
                ~timings:[ ("wall_ms", ms); ("slowdown_x", slowdown) ])
            arm_names
        in
        { key = [ ("workload", str name); ("relations", int n) ]; arms = cell_arms })
      workloads
  in
  (* Overhead across workloads: the geomean of the per-workload ratios
     is each arm's headline. *)
  let x arm_name = geomean (Hashtbl.find slowdowns arm_name) in
  let trace_x = x "trace" and explain_x = x "trace+explain" in
  let profile_x = x "profile" and flightrec_x = x "profile+flightrec" in
  check gates "trace_under_4x" (trace_x <= 4.)
    "tracing slowdown %.2fx exceeds the 4x gate" trace_x;
  (* The profiler and ring are counters and preallocated slots, no
     allocation per event: they must stay far cheaper than tracing. *)
  check gates "profile_under_2x" (profile_x <= 2.)
    "profiler slowdown %.2fx exceeds the 2x gate" profile_x;
  check gates "profile_flightrec_under_2x" (flightrec_x <= 2.)
    "profiler+flightrec slowdown %.2fx exceeds the 2x gate" flightrec_x;
  finish mode
    {
      bench = "obs";
      gates;
      headlines =
        [ ("trace_slowdown_x", trace_x); ("trace_explain_slowdown_x", explain_x);
          ("profile_slowdown_x", profile_x);
          ("profile_flightrec_slowdown_x", flightrec_x) ];
      cells;
    }

(* ------------------------------------------------------------------ *)
(* MQO  Multi-query optimization                                        *)
(* ------------------------------------------------------------------ *)

(* Sharing-ratio arms (0%, ~30%, ~70% of the batch embedding a common
   join/select core) crossed with the strategies: independent
   optimization in the shared memo (off), the Volcano-SH post-pass, and
   Volcano-RU arrival-order reuse. The off arm must be bit-identical to
   N fresh independent optimizations, and no strategy may ever raise
   the batch cost above the independent baseline. Outside smoke mode
   both strategies must also strictly improve every sharing arm. *)
let mqo_bench mode =
  let count = if mode = Full then 16 else 10 in
  let n_relations = 6 in
  let core_relations = 3 in
  let sharings = if mode = Smoke then [ 0.0; 0.3 ] else [ 0.0; 0.3; 0.7 ] in
  let gates = new_gates () in
  let make_batch sharing =
    Workload.generate_overlapping
      (Workload.spec ~n_relations ~seed:(seed_base + 1900) ())
      ~count ~core_relations ~sharing ()
  in
  let cells =
    List.map
      (fun sharing ->
        (* The independent baseline for the bit-identity gate: every
           query optimized on a fresh memo. *)
        let baseline_batch = make_batch sharing in
        let baseline_req = Relmodel.Optimizer.request baseline_batch.batch_catalog in
        let baseline =
          List.map
            (fun q ->
              render_plan
                (Relmodel.Optimizer.optimize baseline_req q ~required:Phys_prop.any).plan)
            baseline_batch.queries
        in
        let cell_arms =
          List.map
            (fun strategy ->
              (* A fresh batch (same seed, bit-identical queries and
                 statistics) per arm: strategies register materialized
                 intermediates in the catalog, so arms must not share it. *)
              let b = make_batch sharing in
              let request = Relmodel.Optimizer.request b.batch_catalog in
              let queries = List.map (fun q -> (q, Phys_prop.any)) b.queries in
              let dt, report =
                time_it (fun () -> Mqo.optimize_batch ~strategy request queries)
              in
              let name = Mqo.strategy_name strategy in
              let ind = report.Mqo.independent_total and batch = report.Mqo.batch_total in
              (match strategy with
               | Mqo.Off ->
                 check gates "off_identical_to_independent"
                   (List.for_all2
                      (fun base (qr : Mqo.query_result) -> base = render_plan qr.Mqo.plan)
                      baseline report.Mqo.results)
                   "sharing %.1f: off arm diverges from independent optimization" sharing
               | _ ->
                 check gates "never_above_independent" (batch <= ind)
                   "sharing %.1f: %s raised batch cost above the independent baseline \
                    (%.6f > %.6f)"
                   sharing name batch ind;
                 (* The headline claim; smoke keeps only the safety gates. *)
                 if mode <> Smoke && sharing >= 0.3 then
                   check gates "sharing_improves" (batch < ind)
                     "sharing %.1f: %s failed to improve on the independent baseline"
                     sharing name);
              let saved_pct = if ind > 0. then 100. *. (ind -. batch) /. ind else 0. in
              arm name
                [ ("independent_total", num ind); ("batch_total", num batch);
                  ("saved_pct", num saved_pct);
                  ("mqo_shared_groups", int report.Mqo.shared_groups);
                  ("mqo_materialize_chosen", int report.Mqo.materialize_chosen);
                  ("mqo_reuse_hits", int report.Mqo.reuse_hits) ]
                ~timings:[ ("wall_ms", dt *. 1000.) ])
            [ Mqo.Off; Mqo.Volcano_sh; Mqo.Volcano_ru ]
        in
        {
          key =
            [ ("sharing", num sharing); ("queries", int count);
              ("relations", int n_relations); ("core_relations", int core_relations) ];
          arms = cell_arms;
        })
      sharings
  in
  finish mode { bench = "mqo"; gates; headlines = []; cells }

(* ------------------------------------------------------------------ *)
(* FEEDBACK  Runtime cardinality feedback                               *)
(* ------------------------------------------------------------------ *)

(* Skewed-statistics arms: the catalog's claimed row or distinct counts
   are doctored by a known factor (the stored data is untouched), the
   query is optimized against the lie and executed instrumented, the
   feedback loop corrects the statistics, and the query is re-optimized
   and re-executed. Plan quality is judged by measured work (per-operator
   tuple touches from observed cardinalities, plus pages), not estimates.
   Gates: every skewed arm reaches >= 10x estimate error; after
   correction the single-table estimates match reality (q-error <= 2);
   the undercount arm recovers strictly in measured work; the accurate
   arm installs no corrections and keeps its plan; feedback-off
   execution is bit-identical to the plain executor; the escape hatch
   replans mid-query on the undercount arm and never fires on the
   accurate one. Measured work on the other skewed arms is recorded but
   not gated: an overcounted table can push the optimizer into a plan
   that happens to measure cheaper than the estimated-best one — a
   cost-model gap the report documents rather than hides. Every mode
   runs the same arms. *)
let feedback_bench mode =
  let gates = new_gates () in
  let make_catalog () =
    let catalog = Catalog.create () in
    ignore
      (Catalog.add_synthetic catalog ~name:"emp"
         ~columns:
           [
             ("id", Catalog.Serial);
             ("dept_id", Catalog.Uniform_int (0, 119));
             ("salary", Catalog.Uniform_int (30_000, 150_000));
           ]
         ~rows:7_200 ~seed:7 ());
    ignore
      (Catalog.add_synthetic catalog ~name:"dept"
         ~columns:
           [ ("id", Catalog.Serial); ("budget", Catalog.Uniform_int (100_000, 5_000_000)) ]
         ~rows:1_200 ~seed:8 ());
    catalog
  in
  (* Doctor one table's claimed row count (and cap its distinct counts)
     without touching the data. *)
  let skew_rows catalog table factor =
    let s = (Catalog.find catalog table).Catalog.stats in
    let stats = Catalog.Stats.with_row_count s (s.Catalog.Stats.row_count *. factor) in
    Catalog.update_stats catalog ~table ~stats ()
  in
  let skew_distinct catalog table column factor =
    let tbl = Catalog.find catalog table in
    let s = tbl.Catalog.stats in
    let stats =
      {
        s with
        Catalog.Stats.columns =
          List.map
            (fun (c, (cs : Catalog.Stats.column_stats)) ->
              if c = column then
                ( c,
                  {
                    cs with
                    Catalog.Stats.n_distinct =
                      Float.max 1. (cs.Catalog.Stats.n_distinct *. factor);
                  } )
              else (c, cs))
            s.Catalog.Stats.columns;
      }
    in
    Catalog.update_stats catalog ~table ~stats ()
  in
  let q_range =
    Logical.select
      Expr.(col "emp.salary" >% int 140_000)
      (Logical.join
         Expr.(col "emp.dept_id" =% col "dept.id")
         (Logical.get "emp") (Logical.get "dept"))
  in
  let q_eq =
    Logical.select
      Expr.(col "emp.dept_id" =% int 3)
      (Logical.join
         Expr.(col "emp.dept_id" =% col "dept.id")
         (Logical.get "emp") (Logical.get "dept"))
  in
  let escape_factor = 4. in
  let skews =
    [
      ("row_undercount", (fun c -> skew_rows c "emp" 0.02), q_range, true);
      ("row_overcount", (fun c -> skew_rows c "emp" 50.), q_range, true);
      ("distinct_skew", (fun c -> skew_distinct c "emp" "emp.dept_id" 0.02), q_eq, true);
      ("accurate", (fun _ -> ()), q_range, false);
    ]
  in
  (* Different plans deliver the same bag in different orders; only the
     instrumentation bit-identity gate compares arrays exactly. *)
  let bag tuples =
    let copy = Array.copy tuples in
    Array.sort compare copy;
    copy
  in
  let optimize catalog q =
    match (Relmodel.Optimizer.optimize (Relmodel.Optimizer.request catalog) q
             ~required:Phys_prop.any).plan with
    | Some p -> p
    | None -> failwith "feedback bench: optimizer found no plan"
  in
  (* Only proven drift counts: an early-terminated node's count is a
     lower bound, not a cardinality (drift_nodes at threshold 1 is
     exactly the proven-drift filter). *)
  let proven nodes = Feedback.drift_nodes ~threshold:1. nodes in
  let max_q nodes =
    List.fold_left
      (fun m (n : Feedback.node_obs) -> Float.max m n.Feedback.ratio)
      1. (proven nodes)
  in
  (* Estimate accuracy over the single-table subtrees (scans and
     filters) — the nodes the correction rule can actually fix; join
     estimates are beyond a distinct/range estimator. *)
  let single_table_q nodes =
    List.fold_left
      (fun m (n : Feedback.node_obs) ->
        match n.Feedback.relations with
        | [ _ ] -> Float.max m n.Feedback.ratio
        | _ -> m)
      1. (proven nodes)
  in
  let work catalog plan =
    let phys = Relmodel.Optimizer.to_physical plan in
    match Feedback.observed_run catalog phys with
    | Feedback.Complete (tuples, _, io, nodes) ->
      (Feedback.measured_work phys nodes ~io, nodes, tuples)
    | Feedback.Aborted _ -> assert false (* no escape factor armed *)
  in
  let cell_arms =
    List.map
      (fun (name, skew, q, expect_drift) ->
        (* Optimize and execute against the lie. *)
        let catalog = make_catalog () in
        skew catalog;
        let before_plan = optimize catalog q in
        let work_before, nodes_before, tuples_before = work catalog before_plan in
        let max_q = max_q nodes_before in
        (* Bit-identity of the instrumented run against the plain executor. *)
        let plain, _, _ =
          Executor.run catalog (Relmodel.Optimizer.to_physical before_plan)
        in
        check gates "instrumentation_bit_identical" (plain = tuples_before)
          "%s: instrumented execution is not bit-identical to Executor.run" name;
        (* Close the loop: corrections, then re-optimize and re-execute. *)
        let outcome =
          Feedback.run_plan
            (Relmodel.Optimizer.request catalog)
            q ~required:Phys_prop.any before_plan
        in
        let corrections = List.length outcome.Feedback.report.Feedback.corrections in
        let after_plan = optimize catalog q in
        let work_after, nodes_after, tuples_after = work catalog after_plan in
        check gates "results_unchanged" (bag tuples_after = bag tuples_before)
          "%s: re-optimized plan changed the query result" name;
        (* Escape hatch on a fresh copy of the same skewed catalog. *)
        let escape_catalog = make_catalog () in
        skew escape_catalog;
        let escape_outcome =
          Feedback.run ~escape_factor
            (Relmodel.Optimizer.request escape_catalog)
            q ~required:Phys_prop.any
        in
        let replans = escape_outcome.Feedback.report.Feedback.replans in
        let escaped = escape_outcome.Feedback.report.Feedback.escaped in
        check gates "results_unchanged"
          (bag escape_outcome.Feedback.tuples = bag tuples_before)
          "%s: escape-hatch execution changed the query result" name;
        let recovered = work_after < work_before in
        let st_before = single_table_q nodes_before in
        let st_after = single_table_q nodes_after in
        let same_plan =
          Relmodel.Optimizer.explain before_plan = Relmodel.Optimizer.explain after_plan
        in
        if expect_drift then begin
          check gates "skewed_arms_drift" (max_q >= 10.)
            "%s: expected >= 10x estimate error, measured %.1fx" name max_q;
          check gates "estimates_converge" (st_after <= 2.)
            "%s: single-table estimates did not converge (%.1fx -> %.1fx)" name
            st_before st_after
        end;
        (match name with
         | "row_undercount" ->
           check gates "undercount_recovers" recovered
             "row_undercount: re-optimized plan did not strictly lower measured work \
              (%.0f -> %.0f)"
             work_before work_after;
           check gates "undercount_escapes" escaped
             "row_undercount: escape hatch did not fire at 4x"
         | "accurate" ->
           check gates "accurate_stable"
             (corrections = 0 && same_plan && not escaped)
             "accurate: %d corrections, plan %s, escape %s on accurate statistics"
             corrections
             (if same_plan then "kept" else "changed")
             (if escaped then "fired" else "idle")
         | _ -> ());
        arm name
          [ ("max_q_error", num max_q); ("work_before", num work_before);
            ("work_after", num work_after); ("recovered", bool recovered);
            ("corrections", int corrections); ("escaped", bool escaped);
            ("escape_replans", int replans); ("plan_unchanged", bool same_plan);
            ("single_table_q_before", num st_before);
            ("single_table_q_after", num st_after) ])
      skews
  in
  finish mode
    {
      bench = "feedback";
      gates;
      headlines = [];
      cells =
        [
          {
            key =
              [ ("workload", str "emp_dept"); ("drift_threshold", num 2.);
                ("escape_factor", num escape_factor) ];
            arms = cell_arms;
          };
        ];
    }

(* ------------------------------------------------------------------ *)
(* SCALEUP  Anytime search on large join graphs                         *)
(* ------------------------------------------------------------------ *)

(* Plan-cost-vs-budget curves on 6-18-relation join graphs (clique,
   cycle, grid, snowflake; skewed statistics, correlated predicates),
   two arms per cell: the guided pruning layer on and off. Every arm of
   a cell is ONE search observed at a ladder of cumulative task budgets
   (the engine's anytime resume semantics), so the whole curve costs
   only the largest budget. Reference cells (<= 10 relations) get an
   extra effectively unbounded rung: there the search completes and the
   final plan must be bit-identical across both arms. A cell's key
   carries its last rung, so a reference cell is the same cell under
   any ladder and its counters match across modes. *)
let scaleup_bench mode =
  let cells =
    (* (shape, name, relations, reference). Reference cells are sized so
       the exhaustive search finishes in seconds; ladder cells are the
       10-20-relation regime where only budgeted search is feasible.
       Outside smoke mode a ladder cell runs up to 16M tasks; clique 12
       explores for its first 3M tasks and holds 2.4 GB of memory at
       2M tasks and 3.4 GB at 3M, so ladder cells run only in [Full]
       mode. *)
    match mode with
    | Smoke ->
      [
        (Workload.Clique, "clique", 6, true);
        (Workload.Cycle, "cycle", 8, true);
        (Workload.Snowflake, "snowflake", 8, true);
        (Workload.Clique, "clique", 12, false);
      ]
    | Full ->
      [
        (Workload.Clique, "clique", 8, true);
        (Workload.Cycle, "cycle", 10, true);
        (Workload.Grid, "grid", 9, true);
        (Workload.Snowflake, "snowflake", 10, true);
        (Workload.Clique, "clique", 12, false);
        (Workload.Cycle, "cycle", 14, false);
        (Workload.Grid, "grid", 16, false);
        (Workload.Snowflake, "snowflake", 18, false);
      ]
    | Default ->
      [
        (Workload.Clique, "clique", 6, true);
        (Workload.Cycle, "cycle", 8, true);
        (Workload.Grid, "grid", 9, true);
        (Workload.Snowflake, "snowflake", 8, true);
      ]
  in
  let ladder =
    if mode = Smoke then [ 1_000; 4_000; 16_000; 64_000 ]
    else [ 2_000_000; 4_000_000; 8_000_000; 16_000_000 ]
  in
  (* Cumulative, so this rung just lets reference cells run to the end. *)
  let exhaustive_cap = 1_000_000_000 in
  let arms = [ ("guided", true); ("unguided", false) ] in
  let gates = new_gates () in
  let cells =
    List.map
      (fun (shape, name, n, reference) ->
        let q =
          Workload.generate
            (Workload.spec ~shape ~skew:0.7 ~correlation:0.85 ~n_relations:n
               ~seed:(seed_base + (1700 * n)) ())
        in
        let budgets = ladder @ if reference then [ exhaustive_cap ] else [] in
        let measured =
          List.map
            (fun (arm_name, guided) ->
              let request =
                {
                  (Relmodel.Optimizer.request q.catalog) with
                  restore_columns = false;
                  guided_pruning = guided;
                }
              in
              let dt, a =
                time_it (fun () ->
                    Relmodel.Optimizer.optimize_anytime request ~budgets q.logical
                      ~required:Phys_prop.any)
              in
              (arm_name, dt *. 1000., a))
            arms
        in
        (* The 10% level is relative to the best final cost any arm of
           this cell reached (for reference cells: the optimum). *)
        let final_cost (a : Relmodel.Optimizer.anytime) =
          Option.map (fun p -> Cost.total (Relmodel.Optimizer.plan_cost p))
            a.an_result.plan
        in
        let best_final =
          List.fold_left
            (fun acc (_, _, a) ->
              match final_cost a with Some c -> Float.min acc c | None -> acc)
            infinity measured
        in
        let threshold = 1.1 *. best_final in
        let baseline = ref "" in
        let cell_arms =
          List.map
            (fun (arm_name, ms, (a : Relmodel.Optimizer.anytime)) ->
              let tasks_to_first =
                match a.an_incumbents with [] -> None | (t, _) :: _ -> Some t
              in
              let tasks_to_10 =
                Option.map fst
                  (List.find_opt
                     (fun (_, c) -> Cost.total c <= threshold)
                     a.an_incumbents)
              in
              (* When the arm's best plan was first in hand — the
                 anytime point after which further tasks only prove
                 optimality or fail to improve. *)
              let tasks_to_best =
                match List.rev a.an_incumbents with
                | (t, _) :: _ -> Some t
                | [] -> None
              in
              if reference then begin
                let rendered = render_plan a.an_result.plan in
                check gates "reference_arms_complete" a.an_result.complete
                  "%s n=%d: arm %s did not complete its exhaustive rung" name n arm_name;
                if arm_name = "guided" then baseline := rendered;
                check gates "reference_plans_identical" (rendered = !baseline)
                  "%s n=%d: arm %s plan diverges from the guided reference" name n
                  arm_name
              end;
              let slots, entries = a.an_goal_footprint in
              let cost_json c = Option.fold ~none:Obs.Json.Null ~some:num c in
              let curve =
                List.map
                  (fun (p : Relmodel.Optimizer.anytime_point) ->
                    Obs.Json.Obj
                      [ ("budget", int p.at_budget); ("tasks", int p.at_tasks);
                        ("cost", cost_json (Option.map Cost.total p.at_cost));
                        ("complete", bool p.at_complete) ])
                  a.an_points
              in
              arm arm_name
                [ ("tasks", int a.an_result.stats.tasks);
                  ("tasks_to_first_incumbent", opt_int tasks_to_first);
                  ("tasks_to_within_10pct", opt_int tasks_to_10);
                  ("tasks_to_best", opt_int tasks_to_best);
                  ("final_cost", cost_json (final_cost a));
                  ("complete", bool a.an_result.complete);
                  ("anytime_improvements", int a.an_result.stats.anytime_improvements);
                  ("goal_slots", int slots); ("goal_entries", int entries) ]
                ~timings:[ ("wall_ms", ms) ]
                ~extras:[ ("curve", Obs.Json.Arr curve) ])
            measured
        in
        {
          key =
            [ ("workload", str name); ("relations", int n); ("reference", bool reference);
              ("budget", int (List.nth budgets (List.length budgets - 1))) ];
          arms = cell_arms;
        })
      cells
  in
  finish mode { bench = "scaleup"; gates; headlines = []; cells }


(* ------------------------------------------------------------------ *)
(* PAPER  Figure 4 (Volcano vs EXODUS) and the ablations A1-A10         *)
(* ------------------------------------------------------------------ *)

(* One cell per experiment and size. A cell's key carries its query
   count, so a smoke cell (default counts, sizes up to 5 relations) is a
   default cell, and full mode (paper-sized counts) has cells of its
   own. Counters sum over a cell's queries. Plans are re-costed by the
   one neutral estimator both optimizers' plans are judged by, except
   in A5 and A7 (see [own_cost]). The gates are the shape claims
   EXPERIMENTS.md marks held. *)

let sizes mode ns = if mode = Smoke then List.filter (fun n -> n <= 5) ns else ns

let per_mode mode ~default ~full = if mode = Full then full else default

let batch n ~seed ~count =
  Workload.generate_batch (Workload.spec ~n_relations:n ~seed ()) ~count

let paper_key experiment n count =
  [ ("experiment", str experiment); ("relations", int n); ("queries", int count) ]

let recost catalog plan = Cost.total (Relmodel.Plan_cost.estimate catalog plan)

(* Two plans of equal cost can re-cost a few ulps apart, their operator
   costs summed in another order, so "never cheaper" allows 1e-9
   relative. *)
let not_cheaper c ~than = c >= than *. (1. -. 1e-9)

let show_cost = Option.fold ~none:"none" ~some:string_of_float

(* One timed Volcano optimization of a workload query. *)
type run = { q : Workload.query; ms : float; r : Relmodel.Optimizer.result }

let volcano_run ?(flags = Relmodel.Rel_model.default_flags) ?(pruning = true) ?max_moves
    ?(required = Phys_prop.any) (q : Workload.query) =
  let request =
    {
      (Relmodel.Optimizer.request q.catalog) with
      flags;
      pruning;
      max_moves;
      (* Plans are compared bare: no cosmetic column-restoring projection. *)
      restore_columns = false;
    }
  in
  let dt, r = time_it (fun () -> Relmodel.Optimizer.optimize request q.logical ~required) in
  { q; ms = dt *. 1000.; r }

let volcano_cost run =
  Option.map (fun p -> recost run.q.catalog (Relmodel.Optimizer.to_physical p)) run.r.plan

(* Search effort summed over the runs, the mean re-costed plan cost, and
   the mean optimization time. *)
let volcano_arm name runs =
  let sum f = int (List.fold_left (fun acc run -> acc + f run.r) 0 runs) in
  let stat (f : Volcano.Search_stats.t -> int) = sum (fun r -> f r.stats) in
  let costs = List.filter_map volcano_cost runs in
  arm name
    [ ("found", int (List.length costs)); ("tasks", stat (fun s -> s.tasks));
      ("goals", stat (fun s -> s.goals)); ("goal_hits", stat (fun s -> s.goal_hits));
      ("groups", sum (fun r -> r.memo_groups)); ("mexprs", sum (fun r -> r.memo_mexprs));
      ("rule_firings", stat (fun s -> s.rule_firings)); ("merges", stat (fun s -> s.merges));
      ("plans_costed", stat (fun s -> s.plans_costed)); ("pruned", stat (fun s -> s.pruned));
      ("plan_cost_mean", num (mean costs)) ]
    ~timings:[ ("opt_ms_mean", mean (List.map (fun run -> run.ms) runs)) ]

(* A one-plan arm: the plan's cost and its root algorithm. *)
let plan_arm ?(counters = []) ?(timings = []) name (plan : (float * Physical.alg) option) =
  let cost, root =
    match plan with
    | None -> (Obs.Json.Null, Obs.Json.Null)
    | Some (cost, alg) -> (num cost, str (Physical.alg_name alg))
  in
  arm name ([ ("plan_cost", cost); ("root", root) ] @ counters) ~timings

(* The cost the optimizer itself put on its plan. The neutral estimator
   does not scale partitioned operators by the worker count, so A7
   reads this one. *)
let own_cost (plan : Relmodel.Optimizer.plan_node option) =
  Option.map (fun (p : Relmodel.Optimizer.plan_node) -> (Cost.total p.cost, p.alg)) plan

(* F4: exhaustive optimization of 2-8-relation chains. EXODUS runs the
   first queries of each size under a MESH node budget; at 6+ relations
   each of them exhausts it, as the paper's EXODUS runs aborted. *)
type exodus_run = {
  e_ms : float;
  e : Exodus.result;
  e_cost : float option;
  optimum : float option;  (** the Volcano plan's cost on the same query *)
}

let f4_cells mode gates =
  let count = per_mode mode ~default:30 ~full:50 in
  let budget = 40_000 in
  List.map
    (fun n ->
      let runs = List.map volcano_run (batch n ~seed:(seed_base + n) ~count) in
      let e_count = if n <= 5 then count else if n = 6 then 5 else 3 in
      let exodus =
        List.filteri (fun i _ -> i < e_count) runs
        |> List.map (fun run ->
               let dt, e =
                 time_it (fun () ->
                     Exodus.optimize ~catalog:run.q.catalog ~max_nodes:budget run.q.logical
                       ~required:Phys_prop.any)
               in
               {
                 e_ms = dt *. 1000.;
                 e;
                 e_cost = Option.map (recost run.q.catalog) e.plan;
                 optimum = volcano_cost run;
               })
      in
      let completed, aborted = List.partition (fun x -> not x.e.aborted) exodus in
      List.iter
        (fun x ->
          check gates "exodus_never_cheaper"
            (match (x.e_cost, x.optimum) with
             | Some ec, Some vc -> not_cheaper ec ~than:vc
             | _ -> false)
            "f4 n=%d: EXODUS completed at cost %s, Volcano optimum %s" n (show_cost x.e_cost)
            (show_cost x.optimum))
        completed;
      if n >= 6 then
        check gates "exodus_none_complete_from_6" (completed = [])
          "f4 n=%d: EXODUS completed %d of %d queries within %d nodes" n
          (List.length completed) e_count budget;
      let ms xs = mean (List.map (fun x -> x.e_ms) xs) in
      let abort_ratios =
        List.filter_map
          (fun x ->
            match (x.e_cost, x.optimum) with Some ec, Some vc -> Some (ec /. vc) | _ -> None)
          aborted
      in
      {
        key = paper_key "f4" n count;
        arms =
          [
            volcano_arm "volcano" runs;
            arm "exodus"
              [ ("queries", int e_count); ("completed", int (List.length completed));
                ("aborted", int (List.length aborted));
                ("mesh_nodes",
                  int (List.fold_left (fun acc x -> acc + x.e.stats.nodes) 0 exodus));
                ("plan_cost_mean", num (mean (List.filter_map (fun x -> x.e_cost) completed)));
                ("abort_ratio", num (geomean abort_ratios)) ]
              ~timings:[ ("opt_ms_mean", ms completed); ("abort_ms_mean", ms aborted) ];
          ];
      })
    (sizes mode [ 2; 3; 4; 5; 6; 7; 8 ])

(* A1: memo deduplication — rule firings against distinct mexprs and
   classes, goals answered from the winner table. *)
let a1_cells mode _gates =
  let count = per_mode mode ~default:10 ~full:20 in
  List.map
    (fun n ->
      let runs = List.map volcano_run (batch n ~seed:(seed_base + (100 * n)) ~count) in
      { key = paper_key "a1" n count; arms = [ volcano_arm "volcano" runs ] })
    (sizes mode [ 3; 4; 5; 6; 7; 8 ])

(* A2: branch-and-bound pruning saves work without changing an optimum. *)
let a2_cells mode gates =
  let count = per_mode mode ~default:10 ~full:20 in
  List.map
    (fun n ->
      let queries = batch n ~seed:(seed_base + (200 * n)) ~count in
      let on = List.map (volcano_run ~pruning:true) queries in
      let off = List.map (volcano_run ~pruning:false) queries in
      let cost run =
        Option.map (fun p -> Cost.total (Relmodel.Optimizer.plan_cost p)) run.r.plan
      in
      List.iter2
        (fun a b ->
          check gates "a2_optima_equal" (cost a <> None && cost a = cost b)
            "a2 n=%d: the optimum changes with pruning off" n)
        on off;
      {
        key = paper_key "a2" n count;
        arms = [ volcano_arm "pruning_on" on; volcano_arm "pruning_off" off ];
      })
    (sizes mode (per_mode mode ~default:[ 3; 4; 5; 6; 7 ] ~full:[ 3; 4; 5; 6; 7; 8 ]))

(* A3: the required order passed into the search against the EXODUS and
   Starburst treatment, a sort glued onto the plan optimized without it. *)
let a3_cells mode gates =
  let count = per_mode mode ~default:15 ~full:30 in
  List.map
    (fun n ->
      let queries = batch n ~seed:(seed_base + (300 * n)) ~count in
      (* The first relation's first join key: an order a merge join along
         the spine can produce. *)
      let order (q : Workload.query) = Sort_order.asc [ List.hd q.relations ^ ".jk1" ] in
      let driven =
        List.map (fun q -> volcano_run ~required:(Phys_prop.sorted (order q)) q) queries
      in
      let unordered = List.map volcano_run queries in
      let pairs =
        List.filter_map
          (fun (d, u) ->
            match (volcano_cost d, u.r.plan) with
            | Some vc, Some p ->
              let glued =
                Physical.mk (Physical.Sort (order u.q)) [ Relmodel.Optimizer.to_physical p ]
              in
              Some (vc, recost u.q.catalog glued)
            | _ -> None)
          (List.combine driven unordered)
      in
      List.iter
        (fun (vc, gc) ->
          check gates "a3_glued_never_cheaper" (not_cheaper gc ~than:vc)
            "a3 n=%d: glued sort %.6f below the property-driven plan %.6f" n gc vc)
        pairs;
      {
        key = paper_key "a3" n count;
        arms =
          [
            volcano_arm "property_driven" driven;
            arm "glued_sort"
              [ ("found", int (List.length pairs));
                ("plan_cost_mean", num (mean (List.map snd pairs)));
                ("cost_ratio", num (geomean (List.map (fun (vc, gc) -> gc /. vc) pairs))) ]
              ~timings:[ ("opt_ms_mean", mean (List.map (fun u -> u.ms) unordered)) ];
          ];
      })
    (sizes mode [ 2; 3; 4; 5; 6 ])

(* A4: the implementor's search knobs. Left-deep and top-8 moves search
   subsets of the exhaustive space, so neither may beat its optimum. *)
let a4_cells mode gates =
  let count = per_mode mode ~default:10 ~full:20 in
  List.map
    (fun n ->
      let queries = batch n ~seed:(seed_base + (400 * n)) ~count in
      let exhaustive = List.map volcano_run queries in
      let left_deep =
        List.map
          (volcano_run ~flags:{ Relmodel.Rel_model.default_flags with left_deep_only = true })
          queries
      in
      let top8 = List.map (volcano_run ~max_moves:8) queries in
      List.iter
        (fun (name, runs) ->
          List.iter2
            (fun ex h ->
              match (volcano_cost ex, volcano_cost h) with
              | Some opt, Some c ->
                check gates "a4_heuristics_never_cheaper" (not_cheaper c ~than:opt)
                  "a4 n=%d: %s plan %.6f below the exhaustive optimum %.6f" n name c opt
              | _ -> ())
            exhaustive runs)
        [ ("left_deep", left_deep); ("top8_moves", top8) ];
      {
        key = paper_key "a4" n count;
        arms =
          [ volcano_arm "exhaustive" exhaustive; volcano_arm "left_deep" left_deep;
            volcano_arm "top8_moves" top8 ];
      })
    (sizes mode [ 4; 5; 6; 7 ])

(* A5: INTERSECT of two relations stored sorted on (y, x), the output
   required in that order — the paper's R sorted on (A,B,C), S on
   (B,A,C) example. The default configuration offers the merge
   intersection the rotated input vector; the off arm withdraws it, so
   only (x, y) is tried and the stored order is wasted. *)
let a5_cells _mode gates =
  let rows = 4_000 in
  let catalog = Catalog.create () in
  let make_table name seed =
    let rng = Random.State.make [| seed |] in
    let tuples =
      Array.init rows (fun _ ->
          [| Value.Int (Random.State.int rng 40); Value.Int (Random.State.int rng 40) |])
    in
    let rotated = Sort_order.asc [ name ^ ".y"; name ^ ".x" ] in
    let schema =
      [| Schema.attribute (name ^ ".x") Schema.TInt; Schema.attribute (name ^ ".y") Schema.TInt |]
    in
    Array.sort (Sort_order.compare_tuples schema rotated) tuples;
    ignore (Catalog.add catalog ~name ~schema ~stored_order:rotated tuples)
  in
  make_table "a" 51;
  make_table "b" 52;
  let query = Logical.intersect (Logical.get "a") (Logical.get "b") in
  let required =
    { Phys_prop.any with order = Sort_order.asc [ "a.y"; "a.x" ]; distinct = true }
  in
  let run flags =
    let request = { (Relmodel.Optimizer.request catalog) with flags } in
    let dt, r = time_it (fun () -> Relmodel.Optimizer.optimize request query ~required) in
    (dt *. 1000., own_cost r.plan)
  in
  let on_ms, on = run Relmodel.Rel_model.default_flags in
  let off_ms, off = run { Relmodel.Rel_model.default_flags with alternatives = false } in
  check gates "a5_alternatives_cheaper"
    (match (on, off) with Some (c_on, _), Some (c_off, _) -> c_on < c_off | _ -> false)
    "a5: alternative vectors on cost %s, off %s"
    (show_cost (Option.map fst on))
    (show_cost (Option.map fst off));
  [
    {
      key = [ ("experiment", str "a5"); ("rows", int rows) ];
      arms =
        [ plan_arm "alternatives_on" on ~timings:[ ("opt_ms", on_ms) ];
          plan_arm "alternatives_off" off ~timings:[ ("opt_ms", off_ms) ] ];
    };
  ]

(* A6: the memo's multi-expressions against the closed-form count of
   join expressions over all relation subsets of a chain with Cartesian
   products admitted, sum over |S| >= 2 of (2^|S| - 2) =
   3^n - 2^(n+1) + n + 1, plus the n selections. *)
let a6_cells mode gates =
  let count = per_mode mode ~default:5 ~full:10 in
  List.map
    (fun n ->
      let runs = List.map volcano_run (batch n ~seed:(seed_base + (600 * n)) ~count) in
      let pow b e = int_of_float (Float.of_int b ** Float.of_int e) in
      let closed_form = pow 3 n - pow 2 (n + 1) + n + 1 in
      List.iter
        (fun run ->
          check gates "a6_mexprs_closed_form" (run.r.memo_mexprs = closed_form + n)
            "a6 n=%d: %d mexprs, closed form %d + %d" n run.r.memo_mexprs closed_form n)
        runs;
      { key = paper_key "a6" n count; arms = [ volcano_arm "volcano" runs ] })
    (sizes mode [ 3; 4; 5; 6; 7; 8 ])

(* A7: partitioning as a physical property. A join of two relations
   pre-partitioned on the join key, result gathered at one site: past
   one worker the co-partitioned parallel join pays one exchange. *)
let a7_cells _mode _gates =
  let rows = 6_000 in
  let catalog = Catalog.create () in
  let add name seed =
    let rng = Random.State.make [| seed |] in
    let tuples =
      Array.init rows (fun i ->
          [| Value.Int i; Value.Int (Random.State.int rng 500);
             Value.Int (Random.State.int rng 100) |])
    in
    let schema =
      [|
        Schema.attribute (name ^ ".id") Schema.TInt;
        Schema.attribute (name ^ ".k") Schema.TInt;
        Schema.attribute (name ^ ".v") Schema.TInt;
      |]
    in
    let part = Phys_prop.Hashed [ name ^ ".k" ] in
    ignore (Catalog.add catalog ~name ~schema ~stored_partitioning:part tuples)
  in
  add "f1" 91;
  add "f2" 92;
  let query =
    Expr.(Logical.join (col "f1.k" =% col "f2.k") (Logical.get "f1") (Logical.get "f2"))
  in
  List.map
    (fun workers ->
      let request =
        {
          (Relmodel.Optimizer.request catalog) with
          params = { Cost_model.default with workers };
          restore_columns = false;
        }
      in
      let r = Relmodel.Optimizer.optimize request query ~required:Phys_prop.gathered in
      {
        key = [ ("experiment", str "a7"); ("workers", int workers); ("rows", int rows) ];
        arms = [ plan_arm "volcano" (own_cost r.plan) ];
      })
    [ 1; 2; 4; 8; 16 ]

(* A8: a dynamic plan for a join whose selection bound is a run-time
   parameter, prepared over 16 buckets, against the static plan
   optimized at the range midpoint and the oracle that re-optimizes for
   the actual value. *)
let a8_cells _mode gates =
  let buckets = 16 in
  let catalog = Catalog.create () in
  ignore
    (Catalog.add_synthetic catalog ~name:"fact"
       ~columns:[ ("k", Catalog.Uniform_int (0, 499)); ("v", Catalog.Uniform_int (0, 9_999)) ]
       ~rows:6_000 ~seed:31 ());
  ignore
    (Catalog.add_synthetic catalog ~name:"dim"
       ~columns:[ ("k", Catalog.Uniform_int (0, 499)); ("w", Catalog.Uniform_int (0, 99)) ]
       ~rows:3_000 ~seed:32 ());
  let template param =
    let open Expr in
    Logical.join
      (col "fact.k" =% col "dim.k")
      (Logical.select (Expr.Cmp (Expr.Le, col "fact.v", Expr.Const param)) (Logical.get "fact"))
      (Logical.get "dim")
  in
  let request = { (Relmodel.Optimizer.request catalog) with restore_columns = false } in
  let prepared =
    Dynplan.prepare ~request template ~range:(0., 400.) ~buckets ~required:Phys_prop.any ()
  in
  List.map
    (fun v ->
      let param = Value.Int v in
      let b = Dynplan.choose prepared param in
      let dynamic =
        Dynplan.instantiate b.Dynplan.plan ~witness:b.Dynplan.witness ~actual:param
      in
      let static_ =
        Dynplan.instantiate prepared.Dynplan.static_plan ~witness:200. ~actual:param
      in
      let oracle =
        Option.map Relmodel.Optimizer.to_physical
          (Relmodel.Optimizer.optimize request (template param) ~required:Phys_prop.any).plan
      in
      (* All three re-costed: an instantiated plan has no cost of its own. *)
      let costed (p : Physical.plan) = (recost catalog p, p.alg) in
      let c_dynamic, _ = costed dynamic in
      check gates "a8_dynamic_equals_oracle"
        (Option.map (recost catalog) oracle = Some c_dynamic)
        "a8 param=%d: dynamic plan %.6f differs from the oracle" v c_dynamic;
      {
        key = [ ("experiment", str "a8"); ("param", int v); ("buckets", int buckets) ];
        arms =
          [ plan_arm "dynamic" (Some (costed dynamic))
              ~counters:[ ("distinct_plans", int (Dynplan.n_distinct_plans prepared)) ];
            plan_arm "static" (Some (costed static_));
            plan_arm "oracle" (Option.map costed oracle) ];
      })
    [ 2; 10; 25; 50; 100; 200; 400 ]

(* A9: longer-lived partial results. A 6-relation chain and its join
   prefixes, re-optimized repeatedly: a fresh memo per query against one
   session memo. *)
let a9_cells mode _gates =
  let n = 6 in
  let rounds = per_mode mode ~default:15 ~full:30 in
  let base = Workload.generate (Workload.spec ~n_relations:n ~seed:(seed_base + 999) ()) in
  let rec prefixes (e : Logical.expr) acc =
    match (e.op, e.inputs) with
    | Logical.Join _, [ l; _ ] -> prefixes l (e :: acc)
    | _, _ -> acc
  in
  let queries = List.concat (List.init rounds (fun _ -> prefixes base.logical [])) in
  let request = { (Relmodel.Optimizer.request base.catalog) with restore_columns = false } in
  let fresh_ms, fresh_tasks =
    time_it (fun () ->
        List.fold_left
          (fun acc q ->
            acc + (Relmodel.Optimizer.optimize request q ~required:Phys_prop.any).tasks_run)
          0 queries)
  in
  let session_ms, session =
    time_it (fun () ->
        let s = Relmodel.Optimizer.session request in
        List.iter
          (fun q -> ignore (Relmodel.Optimizer.optimize_in s q ~required:Phys_prop.any))
          queries;
        s)
  in
  let session_tasks = (Relmodel.Optimizer.session_stats session).tasks in
  [
    {
      key = paper_key "a9" n (List.length queries);
      arms =
        [ arm "fresh" [ ("tasks", int fresh_tasks) ]
            ~timings:[ ("wall_ms", fresh_ms *. 1000.) ];
          arm "session" [ ("tasks", int session_tasks) ]
            ~timings:[ ("wall_ms", session_ms *. 1000.) ] ];
    };
  ]

(* A10: anytime optimization. 6-relation chains under task budgets: the
   plans found and their geomean cost over the exhaustive optimum. *)
let a10_cells mode gates =
  let n = 6 in
  let count = per_mode mode ~default:10 ~full:20 in
  let exhaustive = List.map volcano_run (batch n ~seed:(seed_base + 1000) ~count) in
  let budgets = [ 50; 200; 500; 1_000; 2_000; 5_000; 20_000 ] in
  let largest = List.fold_left max 0 budgets in
  let budget_cell budget =
    let results =
      List.map
        (fun run ->
          let request =
            {
              (Relmodel.Optimizer.request run.q.catalog) with
              max_tasks = Some budget;
              restore_columns = false;
            }
          in
          (run, Relmodel.Optimizer.optimize request run.q.logical ~required:Phys_prop.any))
        exhaustive
    in
    let ratios =
      List.filter_map
        (fun (run, (r : Relmodel.Optimizer.result)) ->
          match (r.plan, run.r.plan) with
          | Some p, Some opt ->
            let c = Cost.total p.cost and o = Cost.total opt.cost in
            check gates "a10_never_below_optimum" (not_cheaper c ~than:o)
              "a10 budget %d: plan %.6f below the optimum %.6f" budget c o;
            Some (c /. o)
          | _ -> None)
        results
    in
    let tasks =
      List.fold_left (fun acc (_, r) -> acc + r.Relmodel.Optimizer.tasks_run) 0 results
    in
    if budget = largest then
      check gates "a10_all_found_at_largest_budget" (List.length ratios = count)
        "a10 budget %d: %d of %d queries found a plan" budget (List.length ratios) count;
    {
      key = paper_key "a10" n count @ [ ("budget", int budget) ];
      arms =
        [
          arm "anytime"
            [ ("found", int (List.length ratios));
              ("tasks", int tasks);
              ("cost_ratio", num (geomean ratios)) ];
        ];
    }
  in
  { key = paper_key "a10" n count; arms = [ volcano_arm "exhaustive" exhaustive ] }
  :: List.map budget_cell budgets

let paper_bench mode =
  let gates = new_gates () in
  let cells =
    List.concat_map
      (fun experiment -> experiment mode gates)
      [ f4_cells; a1_cells; a2_cells; a3_cells; a4_cells; a5_cells; a6_cells; a7_cells;
        a8_cells; a9_cells; a10_cells ]
  in
  finish mode { bench = "paper"; gates; headlines = []; cells }

(* ------------------------------------------------------------------ *)

let reports =
  [
    ("paper", paper_bench); ("plansrv", plansrv_bench); ("pruning", pruning_bench);
    ("obs", obs_bench); ("mqo", mqo_bench); ("feedback", feedback_bench);
    ("scaleup", scaleup_bench);
  ]

let usage () =
  prerr_endline
    ("usage: main.exe [TARGET...] [smoke | full]\n  targets: all "
    ^ String.concat " " (List.map fst reports));
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode =
    match (List.mem "smoke" args, List.mem "full" args) with
    | true, true -> usage ()
    | true, false -> Smoke
    | false, true -> Full
    | false, false -> Default
  in
  let names = List.filter (fun a -> a <> "full" && a <> "smoke") args in
  List.iter (fun a -> if a <> "all" && not (List.mem_assoc a reports) then usage ()) names;
  let all = names = [] || names = [ "all" ] in
  let t0 = Unix.gettimeofday () in
  List.iter (fun (name, run) -> if all || List.mem name names then run mode) reports;
  Printf.printf "\nTotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
