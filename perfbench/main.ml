(* The end-to-end benchmark: SQL text -> Sqlfront.parse -> Plansrv.serve_one
   (fingerprint, plan-cache probe, and on a miss the Volcano search) ->
   Relmodel.Optimizer.to_physical -> Executor.run, driven by one client
   in a closed loop with no think time.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--trace-out FILE]

   --trace 0 measures the end-to-end metrics with no tracing.
   --trace 1 measures the per-layer metrics: it runs the schedule's first
   round in alternating untraced passes and passes with a span around
   every call into a layer, and reports the difference as the tracing
   overhead.

   Every served result is checked against the naive evaluator after the
   timed part of the run (see Oracle). The last line of standard output
   is one JSON object with the run's verdict and metrics. *)

open Perfbench

let now = Obs.Clock.now_ns

let secs_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

(* ---------- arguments ---------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  trace_out : string option;
}

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref 0 in
  let trace_out = ref None in
  Arg.parse
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME workload to run");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N input seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S measured seconds");
      ("--trace", Arg.Int (fun n -> trace := n), "0|1 end-to-end or per-layer run");
      ("--trace-out", Arg.String (fun s -> trace_out := Some s), "FILE Chrome trace output");
    ]
    (fun a -> fail "unexpected argument %S" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]";
  let workload =
    match !workload with
    | Some w when List.mem w Workloads.names -> w
    | Some w -> fail "unknown workload %S (one of %s)" w (String.concat ", " Workloads.names)
    | None -> fail "--workload is required"
  in
  let seed = match !seed with Some s -> s | None -> fail "--seed is required" in
  let seconds =
    match !seconds with
    | Some s when s > 0. -> s
    | Some _ | None -> fail "--seconds must be positive"
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  { workload; seed; seconds; trace = !trace = 1; trace_out = !trace_out }

(* ---------- the service, configured as `volcano-cli serve` does ---------- *)

type env = {
  catalog : Catalog.t;
  srv : Plansrv.t;
  worker : Plansrv.worker;
}

(* Set-up: load the catalog (statistics are computed on load), create
   the service with the CLI's defaults (capacity 512, 8 shards, one
   worker, one domain, a profiler attached) and warm the plan cache
   with each distinct statement once. *)
let setup (wl : Workloads.t) =
  let catalog = wl.catalog () in
  let request =
    { (Relmodel.Optimizer.request catalog) with profiler = Some (Obs.Profile.create ()) }
  in
  let srv = Plansrv.create (Plansrv.config request) in
  let worker = Plansrv.worker srv in
  List.iter
    (fun sql ->
      let st = Sqlfront.parse catalog sql in
      ignore (Plansrv.serve_one srv worker st.Sqlfront.logical ~required:st.Sqlfront.required))
    wl.warm;
  { catalog; srv; worker }

(* ---------- one trip ---------- *)

(* A layer call. The untraced probe just calls; the traced one wraps
   the call in a span and counts the words it allocates. *)
type probe = { call : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { call = (fun _ f -> f ()) }

type served = {
  st : Sqlfront.statement;
  resp : Plansrv.response;
  phys : Relalg.Physical.plan;
  rows : Relalg.Tuple.t array;
  schema : Relalg.Schema.t;
  io : Executor.Io_stats.t;
}

(* The timed interval of a statement runs from the parse call to the
   last row. *)
let trip probe env sql =
  match
    let st = probe.call "sqlfront.parse" (fun () -> Sqlfront.parse env.catalog sql) in
    let resp =
      probe.call "plansrv.serve_one" (fun () ->
          Plansrv.serve_one env.srv env.worker st.Sqlfront.logical
            ~required:st.Sqlfront.required)
    in
    match resp.Plansrv.plan with
    | None -> Error "no plan (plansrv.rejected)"
    | Some plan ->
      let phys =
        probe.call "relmodel.to_physical" (fun () -> Relmodel.Optimizer.to_physical plan)
      in
      let rows, schema, io =
        probe.call "executor.run" (fun () -> Executor.run env.catalog phys)
      in
      Ok { st; resp; phys; rows; schema; io }
  with
  | r -> r
  | exception e -> Error (Printexc.to_string e)

let analyze probe env table =
  probe.call "catalog.update_stats" (fun () -> Catalog.update_stats env.catalog ~table ())

(* ---------- what a pass records outside the timed intervals ---------- *)

type entry = {
  sql : string;
  mutable seen : (Oracle.observation * int ref) list;
  mutable unordered : int;
}

type counts = {
  mutable statements : int;
  mutable failed : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable evictions : int;
  mutable rejected : int;
  mutable pages : int;
  mutable tuples : int;
  mutable refreshes : int;
  mutable tasks : int;
  mutable goals : int;
  mutable goal_hits : int;
  mutable pruned : int;
  mutable costed : int;
  mutable promise_evals : int;
  mutable plan_cost_sum : float;
}

let zero_counts () =
  {
    statements = 0; failed = 0; hits = 0; misses = 0; invalidations = 0; evictions = 0;
    rejected = 0; pages = 0; tuples = 0; refreshes = 0; tasks = 0; goals = 0;
    goal_hits = 0; pruned = 0; costed = 0; promise_evals = 0; plan_cost_sum = 0.;
  }

(* The counts that must repeat exactly for one seed. *)
let count_fields c =
  [
    ("statements", c.statements); ("failed", c.failed); ("hits", c.hits);
    ("misses", c.misses); ("invalidations", c.invalidations); ("evictions", c.evictions);
    ("rejected", c.rejected); ("pages", c.pages); ("tuples", c.tuples);
    ("refreshes", c.refreshes); ("tasks", c.tasks); ("goal_hits", c.goal_hits);
    ("pruned", c.pruned); ("costed", c.costed); ("promise_evals", c.promise_evals);
  ]

type book = {
  entries : (string, entry) Hashtbl.t;
  costs : (string, Relmodel.Optimizer.plan_node * float) Hashtbl.t;
  mutable errors : string list;  (** first few failure messages *)
}

let new_book () = { entries = Hashtbl.create 64; costs = Hashtbl.create 64; errors = [] }

let note_error book msg =
  if List.length book.errors < 5 then book.errors <- msg :: book.errors

let entry_of book sql =
  match Hashtbl.find_opt book.entries sql with
  | Some e -> e
  | None ->
    let e = { sql; seen = []; unordered = 0 } in
    Hashtbl.add book.entries sql e;
    e

(* Plan_cost.estimate is deterministic, so a plan served from the cache
   is re-costed once. *)
let plan_cost book env (s : served) =
  let plan = Option.get s.resp.Plansrv.plan in
  match Hashtbl.find_opt book.costs s.resp.Plansrv.fingerprint with
  | Some (p, c) when p == plan -> c
  | Some _ | None ->
    let c = Relalg.Cost.total (Relmodel.Plan_cost.estimate env.catalog s.phys) in
    Hashtbl.replace book.costs s.resp.Plansrv.fingerprint (plan, c);
    c

let record book env counts ~cost sql = function
  | Error msg ->
    counts.failed <- counts.failed + 1;
    note_error book (Printf.sprintf "%s: %s" sql msg)
  | Ok (s : served) ->
    let required = s.st.Sqlfront.required in
    let obs = Oracle.observe ~required s.schema s.rows in
    let e = entry_of book sql in
    if not obs.Oracle.ordered then begin
      e.unordered <- e.unordered + 1;
      note_error book (sql ^ ": rows are not in ORDER BY order")
    end;
    (match List.find_opt (fun (o, _) -> o = obs) e.seen with
     | Some (_, n) -> incr n
     | None -> e.seen <- (obs, ref 1) :: e.seen);
    counts.pages <- counts.pages + s.io.Executor.Io_stats.page_reads
                    + s.io.Executor.Io_stats.page_writes;
    counts.tuples <- counts.tuples + s.io.Executor.Io_stats.tuples_produced;
    if cost then counts.plan_cost_sum <- counts.plan_cost_sum +. plan_cost book env s

let add_service_delta counts (m0 : Plansrv.metrics) (m1 : Plansrv.metrics) =
  let s = Volcano.Search_stats.diff ~since:m0.search m1.search in
  counts.hits <- counts.hits + m1.hits - m0.hits;
  counts.misses <- counts.misses + m1.misses - m0.misses;
  counts.invalidations <- counts.invalidations + m1.invalidations - m0.invalidations;
  counts.evictions <- counts.evictions + m1.evictions - m0.evictions;
  counts.rejected <- counts.rejected + m1.rejected - m0.rejected;
  counts.tasks <- counts.tasks + s.tasks;
  counts.goals <- counts.goals + s.goals;
  counts.goal_hits <- counts.goal_hits + s.goal_hits;
  counts.pruned <- counts.pruned + s.pruned;
  counts.costed <- counts.costed + s.plans_costed;
  counts.promise_evals <- counts.promise_evals + s.promise_evals

(* ---------- the oracle pass ---------- *)

type verdicts = {
  mutable rejected_results : int;
  mutable column_order_diffs : int;
  mutable column_name_diffs : int;
  mutable checked : int;
}

(* Runs after every timed interval: the reference for each distinct
   statement is the naive evaluation of an equivalent expression with
   the selections at the leaves. *)
let check_results book catalog =
  let v = { rejected_results = 0; column_order_diffs = 0; column_name_diffs = 0; checked = 0 } in
  Hashtbl.iter
    (fun _ e ->
      let st = Sqlfront.parse catalog e.sql in
      let rows, schema = Executor.naive catalog (Oracle.push_down st.Sqlfront.logical) in
      let reference = Oracle.reference ~required:st.Sqlfront.required schema rows in
      let set_op = Oracle.is_set_op st.Sqlfront.logical in
      v.rejected_results <- v.rejected_results + e.unordered;
      List.iter
        (fun (obs, n) ->
          v.checked <- v.checked + !n;
          match Oracle.judge ~set_op ~reference obs with
          | Oracle.Match `Same -> ()
          | Oracle.Match `Reordered -> v.column_order_diffs <- v.column_order_diffs + !n
          | Oracle.Match `Renamed -> v.column_name_diffs <- v.column_name_diffs + !n
          | Oracle.Mismatch why ->
            (* unordered results were already counted when they were served *)
            if obs.Oracle.ordered then v.rejected_results <- v.rejected_results + !n;
            note_error book (Printf.sprintf "%s: %s" e.sql why))
        e.seen)
    book.entries;
  v

(* ---------- statistics ---------- *)

let median a = if Array.length a = 0 then 0. else Speed.median a

(* The workload's tail percentile: the highest rung of p99.9, p99, p95,
   p90, p85, p80, p75 that leaves at least ten samples above it at the run lengths
   the workload reaches on a slow machine. A fixed rung keeps the metric
   the same from run to run; should a run fall short of ten samples, it
   steps down the ladder and says so. Returns the percentile, the value
   (nearest rank) and the number of samples above it. *)
let tail (wl : Workloads.t) a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  let ladder =
    List.filter (fun p -> p <= wl.tail_pct) [ 99.9; 99.; 95.; 90.; 85.; 80.; 75.; 50. ]
  in
  let p =
    match List.find_opt (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= 10.) ladder with
    | Some p -> p
    | None -> 50.
  in
  if p <> wl.tail_pct then
    Printf.printf "latency_tail_ms: %d statements are too few for p%g, reporting p%g\n" n
      wl.tail_pct p;
  let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
  (p, (if n = 0 then 0. else a.(min (n - 1) (rank - 1))), n - rank)

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_lines with
  | lines -> begin
    match
      List.find_map
        (fun l ->
          if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                Some (float_of_int kb /. 1024.))
          else None)
        lines
    with
    | Some mb -> mb
    | None -> 0.
  end
  | exception Sys_error _ -> 0.

(* ---------- the end-to-end run ---------- *)

(* Enough identical set-ups that their median is steady: a single
   set-up of the small workloads lasts a few milliseconds or less. The
   machine's speed drifts during a run, so set-ups are spread through
   the measured loop, except for exec_heavy: a second copy of its large
   catalog alive beside the loop's would count in the peak RSS. Its
   set-ups are split around the loop instead. *)
let setup_plan (wl : Workloads.t) =
  match wl.name with
  | "exec_heavy" -> (5, `Around)
  | "stats_churn" -> (15, `Spread)
  | "plan_cache_hot" -> (31, `Spread)
  | _ -> (51, `Spread)

type e2e = {
  setup_s : float;
  setups_s : float;  (** wall time of all the set-ups *)
  loop_s : float;  (** wall time of the measured loop *)
  loop_cpu_s : float;  (** processor time the process used in the loop *)
  busy_s : float;  (** summed timed intervals: statements and ANALYZEs *)
  busy_ref_s : float;  (** the same at reference speed *)
  kernel_s : float;  (** median time of the speed kernel *)
  served : int;  (** statements run in the loop *)
  latencies_ms : float array;
      (** at reference speed: every statement's, or a systematic sample *)
  round_counts : counts;  (** counts over the first round *)
  run_counts : counts;  (** counts over the whole run *)
  rss_mb : float;
  book : book;
}

(* Statement latencies in a buffer of fixed size, allocated before the
   set-ups, so the harness adds the same memory to every run. When the
   buffer fills, every other sample is dropped and from then on only
   every [stride]-th statement is kept: a systematic sample of the run. *)
type samples = {
  buf : float array;
  mutable kept : int;
  mutable stride : int;
  mutable seen : int;
}

let samples () = { buf = Array.make 262_144 0.; kept = 0; stride = 1; seen = 0 }

let add_sample s x =
  if s.seen mod s.stride = 0 then begin
    if s.kept = Array.length s.buf then begin
      for i = 0 to (s.kept / 2) - 1 do
        s.buf.(i) <- s.buf.(2 * i)
      done;
      s.kept <- s.kept / 2;
      s.stride <- 2 * s.stride
    end;
    if s.seen mod s.stride = 0 then begin
      s.buf.(s.kept) <- x;
      s.kept <- s.kept + 1
    end
  end;
  s.seen <- s.seen + 1

(* How often the speed kernel runs during a run. *)
let calibrate_every_s = 0.25

let run_e2e (wl : Workloads.t) ~seconds =
  let lat = samples () in
  let speed = Speed.create () in
  let repeats, placement = setup_plan wl in
  let setup_times = ref [] in
  let timed () =
    Speed.tick speed ~every_s:calibrate_every_s;
    let t0 = now () in
    let env = setup wl in
    setup_times := (secs_since t0 *. speed.Speed.factor) :: !setup_times;
    env
  in
  let before, during =
    match placement with
    | `Around -> ((repeats / 2) + 1, 0)
    | `Spread -> (1, repeats - 1)
  in
  for _ = 2 to before do
    Gc.compact ();
    ignore (Sys.opaque_identity (timed ()))
  done;
  Gc.compact ();
  let env = ref (Some (timed ())) in
  let current () = Option.get !env in
  Gc.compact ();
  let book = new_book () in
  let round_counts = zero_counts () and run_counts = zero_counts () in
  (* summed timed intervals, as measured and at reference speed *)
  let busy = ref 0L and busy_ref = ref 0. in
  let timed_interval dt =
    busy := Int64.add !busy dt;
    let s = Int64.to_float dt /. 1e9 *. speed.Speed.factor in
    busy_ref := !busy_ref +. s;
    s
  in
  (* service counters are read as deltas from [mark] *)
  let mark = ref (Plansrv.metrics (current ()).srv) in
  let settle counts =
    let m = Plansrv.metrics (current ()).srv in
    add_service_delta counts !mark m;
    mark := m
  in
  let t_start = now () in
  let cpu_start = Unix.times () in
  let i = ref 0 and spread = ref 0 in
  (* a run of sessions ends with a whole session, so that every run has
     the same mix of early and late statements in a session *)
  let in_session () = match wl.session with Some k -> !i mod k <> 0 | None -> false in
  while !i < wl.round || secs_since t_start < seconds || in_session () do
    if !i = wl.round then settle round_counts;
    Speed.tick speed ~every_s:calibrate_every_s;
    if !spread < during
       && secs_since t_start >= seconds *. float_of_int !spread /. float_of_int during
    then begin
      ignore (Sys.opaque_identity (timed ()));
      incr spread
    end;
    (match wl.session with
     | Some k when !i > 0 && !i mod k = 0 ->
       settle (if !i <= wl.round then round_counts else run_counts);
       env := None;
       Gc.compact ();
       env := Some (setup wl);
       mark := Plansrv.metrics (current ()).srv
     | Some _ | None -> ());
    let env = current () in
    let counts = if !i < wl.round then round_counts else run_counts in
    (match wl.step !i with
     | Workloads.Sql sql ->
       let t0 = now () in
       let r = trip untraced env sql in
       let dt = timed_interval (Int64.sub (now ()) t0) in
       add_sample lat (dt *. 1e3);
       counts.statements <- counts.statements + 1;
       record book env counts ~cost:(!i < wl.round) sql r
     | Workloads.Analyze table ->
       let t0 = now () in
       analyze untraced env table;
       ignore (timed_interval (Int64.sub (now ()) t0));
       counts.refreshes <- counts.refreshes + 1);
    incr i
  done;
  let loop_s = secs_since t_start in
  let cpu_end = Unix.times () in
  let loop_cpu_s =
    cpu_end.Unix.tms_utime +. cpu_end.Unix.tms_stime
    -. cpu_start.Unix.tms_utime -. cpu_start.Unix.tms_stime
  in
  settle run_counts;
  (* drop the service before the remaining set-ups *)
  env := None;
  let rss_mb = peak_rss_mb () in
  for _ = before + !spread + 1 to repeats do
    Gc.compact ();
    ignore (Sys.opaque_identity (timed ()))
  done;
  {
    setup_s = median (Array.of_list !setup_times);
    setups_s = List.fold_left ( +. ) 0. !setup_times;
    loop_s; loop_cpu_s;
    busy_s = Int64.to_float !busy /. 1e9;
    busy_ref_s = !busy_ref;
    kernel_s = Speed.run_median speed;
    served = lat.seen;
    latencies_ms = Array.sub lat.buf 0 lat.kept;
    round_counts; run_counts; rss_mb; book;
  }

let sum_counts a b =
  let c = zero_counts () in
  List.iter
    (fun x ->
      c.statements <- c.statements + x.statements; c.failed <- c.failed + x.failed;
      c.hits <- c.hits + x.hits; c.misses <- c.misses + x.misses;
      c.invalidations <- c.invalidations + x.invalidations;
      c.evictions <- c.evictions + x.evictions; c.rejected <- c.rejected + x.rejected;
      c.pages <- c.pages + x.pages; c.tuples <- c.tuples + x.tuples;
      c.refreshes <- c.refreshes + x.refreshes; c.tasks <- c.tasks + x.tasks;
      c.goals <- c.goals + x.goals; c.goal_hits <- c.goal_hits + x.goal_hits;
      c.pruned <- c.pruned + x.pruned; c.costed <- c.costed + x.costed;
      c.promise_evals <- c.promise_evals + x.promise_evals;
      c.plan_cost_sum <- c.plan_cost_sum +. x.plan_cost_sum)
    [ a; b ];
  c

(* Checks that the generated inputs still exercise the layer the
   workload is for. They are not speed gates. *)
let construction_checks (wl : Workloads.t) ~(round : counts) ~(run : counts) =
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  match wl.name with
  | "join_search" ->
    [ ("0 hits after set-up", run.hits = 0, Printf.sprintf "hits=%d" run.hits) ]
  | "plan_cache_hot" ->
    let r = ratio run.hits (run.hits + run.misses) in
    [ ("hit ratio >= 0.99", r >= 0.99, Printf.sprintf "hit ratio=%.4f" r) ]
  | "exec_heavy" ->
    [ ("0 misses after warm-up", run.misses = 0, Printf.sprintf "misses=%d" run.misses) ]
  | "stats_churn" ->
    [
      ( "invalidations > 0 in the first round",
        round.invalidations > 0,
        Printf.sprintf "invalidations=%d" round.invalidations );
    ]
  | _ -> []

(* ---------- output ---------- *)

(* [metrics] are (name, value, unit) triples. *)
let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit_) ->
        (name, Obs.Json.Obj [ ("value", Obs.Json.Num value); ("unit", Obs.Json.Str unit_) ]))
      metrics
  in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool correct); ("attempted", Obs.Json.int attempted);
            ("failed", Obs.Json.int failed); ("metrics", Obs.Json.Obj fields);
          ]))

let describe (wl : Workloads.t) =
  Printf.printf "workload %s: tables %s; %d distinct statements warmed; round of %d steps\n"
    wl.name
    (String.concat ", " (List.map (fun (t, n) -> Printf.sprintf "%s(%d)" t n) wl.tables))
    (List.length wl.warm) wl.round;
  Printf.printf "load: one client, closed loop, no think time; plansrv: 1 worker, 1 domain\n"

let report_checks book checks verdicts =
  List.iter
    (fun (name, ok, detail) ->
      Printf.printf "check %-40s %s (%s)\n" name (if ok then "ok" else "FAILED") detail)
    checks;
  Printf.printf
    "oracle: %d results checked, %d rejected; accepted with another column order: %d, \
     with the other set operand's column names: %d\n"
    verdicts.checked verdicts.rejected_results verdicts.column_order_diffs
    verdicts.column_name_diffs;
  List.iter (fun e -> Printf.printf "error: %s\n" e) (List.rev book.errors)

let main_e2e (wl : Workloads.t) ~seconds =
  let r = run_e2e wl ~seconds in
  let t_oracle = now () in
  let verdicts = check_results r.book (wl.catalog ()) in
  let oracle_s = secs_since t_oracle in
  let all = sum_counts r.round_counts r.run_counts in
  let checks = construction_checks wl ~round:r.round_counts ~run:all in
  let attempted = all.statements in
  let failed = all.failed + verdicts.rejected_results in
  let p, tail_ms, beyond = tail wl r.latencies_ms in
  let served = r.round_counts.statements - r.round_counts.failed in
  let metrics =
    [
      ("setup_s", r.setup_s, "s");
      ("ops_per_s", float_of_int r.served /. r.busy_ref_s, "1/s");
      ("latency_p50_ms", median r.latencies_ms, "ms");
      ("latency_tail_ms", tail_ms, "ms");
      ("peak_rss_mb", r.rss_mb, "MB");
      ("plan_cost_mean", r.round_counts.plan_cost_sum /. float_of_int (max 1 served), "cost");
    ]
  in
  describe wl;
  List.iter (fun (k, v, u) -> Printf.printf "%-18s %14.6f %s\n" k v u) metrics;
  Printf.printf "%-18s %14.6f (failed %d / attempted %d)\n" "error_rate"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  Printf.printf "latency_tail_ms is p%g over %d samples of %d statements, %d samples above it\n"
    p (Array.length r.latencies_ms) r.served beyond;
  Printf.printf
    "machine speed: kernel %.3f ms (reference %.3f ms); ops_per_s as measured %.6f\n"
    (r.kernel_s *. 1e3) (Speed.reference_s *. 1e3) (float_of_int r.served /. r.busy_s);
  Printf.printf
    "wall time: %d set-ups %.2fs, measured loop %.2fs (processor time %.2fs), oracle %.2fs\n"
    (fst (setup_plan wl)) r.setups_s r.loop_s r.loop_cpu_s oracle_s;
  report_checks r.book checks verdicts;
  let correct = failed = 0 && List.for_all (fun (_, ok, _) -> ok) checks in
  print_result ~correct ~attempted ~failed metrics

(* ---------- the per-layer run ---------- *)

type layer_stats = (string, float ref * int ref) Hashtbl.t  (** words, calls *)

(* [last] keeps the most recent span of each layer, so the pass can
   classify the statement's serve_one span by its outcome. *)
let traced_probe buf (root : Obs.Trace.span option ref) (allocs : layer_stats) last =
  {
    call =
      (fun name f ->
        let sp = Obs.Trace.open_span buf ?parent:!root ~cat:"layer" name in
        let w0 = Gc.minor_words () in
        let finish outcome =
          let w = Gc.minor_words () -. w0 in
          Obs.Trace.close ?outcome sp;
          Hashtbl.replace last name sp;
          match Hashtbl.find_opt allocs name with
          | Some (words, calls) ->
            words := !words +. w;
            incr calls
          | None -> Hashtbl.add allocs name (ref w, ref 1)
        in
        match f () with
        | v ->
          finish None;
          v
        | exception e ->
          finish (Some "exception");
          raise e);
  }

type pass = {
  p_counts : counts;
  p_busy_s : float;
  p_miss_ms : float list;  (** serve_one spans of misses and invalidations *)
  p_hit_us : float list;  (** serve_one spans of hits *)
  p_live_words : float;  (** live-heap growth over the pass *)
  p_trace : Obs.Trace.t option;
}

(* One pass over the first round of the schedule, from a
   fresh set-up. Traced or not, it runs the same statements from the
   same state, so its counts must be identical. *)
let run_pass (wl : Workloads.t) book ~traced allocs =
  let env = setup wl in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let counts = zero_counts () in
  let tr = if traced then Some (Obs.Trace.create ()) else None in
  let buf = Option.map (fun t -> Obs.Trace.buf t ~track:0) tr in
  let root = ref None in
  let last = Hashtbl.create 8 in
  let probe =
    match buf with Some b -> traced_probe b root allocs last | None -> untraced
  in
  let open_root name =
    match buf with
    | Some b -> root := Some (Obs.Trace.open_span b ~cat:"statement" name)
    | None -> ()
  in
  let close_root () =
    Option.iter (fun sp -> Obs.Trace.close sp) !root;
    root := None
  in
  let busy = ref 0L and miss_ms = ref [] and hit_us = ref [] in
  let m0 = Plansrv.metrics env.srv in
  for i = 0 to wl.round - 1 do
    match wl.step i with
    | Workloads.Sql sql ->
      Hashtbl.reset last;
      let t0 = now () in
      open_root "statement";
      let r = trip probe env sql in
      close_root ();
      busy := Int64.add !busy (Int64.sub (now ()) t0);
      counts.statements <- counts.statements + 1;
      (match r, Hashtbl.find_opt last "plansrv.serve_one" with
       | Ok s, Some sp -> begin
         let ms = Int64.to_float (Int64.sub sp.Obs.Trace.sp_end sp.Obs.Trace.sp_start) /. 1e6 in
         match s.resp.Plansrv.outcome with
         | Plansrv.Hit -> hit_us := (ms *. 1e3) :: !hit_us
         | Plansrv.Miss | Plansrv.Invalidated -> miss_ms := ms :: !miss_ms
       end
       | _, _ -> ());
      record book env counts ~cost:false sql r
    | Workloads.Analyze table ->
      let t0 = now () in
      open_root "analyze";
      analyze probe env table;
      close_root ();
      busy := Int64.add !busy (Int64.sub (now ()) t0);
      counts.refreshes <- counts.refreshes + 1
  done;
  add_service_delta counts m0 (Plansrv.metrics env.srv);
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  (* keep the service alive until its memo has been measured *)
  ignore (Sys.opaque_identity env);
  {
    p_counts = counts;
    p_busy_s = Int64.to_float !busy /. 1e9;
    p_miss_ms = !miss_ms;
    p_hit_us = !hit_us;
    p_live_words = float_of_int (live1 - live0);
    p_trace = tr;
  }

(* Self time of each span: its duration minus the part its children
   cover. Layer spans do not nest, so a layer's self time is its
   duration and the root's self time is the harness's own time. *)
let self_times trace =
  let spans = Obs.Trace.spans trace in
  let child_ns = Hashtbl.create 1024 in
  let dur (sp : Obs.Trace.span) = Int64.to_float (Int64.sub sp.sp_end sp.sp_start) in
  List.iter
    (fun (sp : Obs.Trace.span) ->
      if sp.sp_parent <> 0 then
        Hashtbl.replace child_ns sp.sp_parent
          (dur sp +. Option.value ~default:0. (Hashtbl.find_opt child_ns sp.sp_parent)))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (sp : Obs.Trace.span) ->
      let self = dur sp -. Option.value ~default:0. (Hashtbl.find_opt child_ns sp.sp_id) in
      let key = if sp.sp_cat = "layer" then sp.sp_name else "harness" in
      let l = Option.value ~default:[] (Hashtbl.find_opt by_name key) in
      Hashtbl.replace by_name key (self :: l))
    spans;
  let total =
    List.fold_left
      (fun acc (sp : Obs.Trace.span) -> if sp.sp_parent = 0 then acc +. dur sp else acc)
      0. spans
  in
  (by_name, total)

let main_layers (wl : Workloads.t) ~seconds ~trace_out =
  let book = new_book () in
  let allocs : layer_stats = Hashtbl.create 8 in
  let t_start = now () in
  (* A first untraced pass warms the heap and is not measured; then
     untraced and traced passes alternate which runs first. *)
  let warm = run_pass wl book ~traced:false allocs in
  let pairs = ref [] in
  while !pairs = [] || secs_since t_start < seconds do
    let pass traced = run_pass wl book ~traced allocs in
    let pair =
      if List.length !pairs mod 2 = 0 then
        let u = pass false in
        (u, pass true)
      else
        let t = pass true in
        (pass false, t)
    in
    pairs := pair :: !pairs
  done;
  let untraced_passes = List.rev_map fst !pairs and traced_passes = List.rev_map snd !pairs in
  let first = List.hd traced_passes in
  let passes = (warm :: untraced_passes) @ traced_passes in
  let verdicts = check_results book (wl.catalog ()) in
  let c = first.p_counts in
  let checks =
    construction_checks wl ~round:c ~run:c
    @ [
        ( "counts repeat across passes",
          List.for_all (fun p -> count_fields p.p_counts = count_fields c) passes,
          Printf.sprintf "%d passes, traced or not" (List.length passes) );
      ]
  in
  (* self times over every traced pass *)
  let by_name = Hashtbl.create 16 and total = ref 0. in
  List.iter
    (fun p ->
      let names, t = self_times (Option.get p.p_trace) in
      total := !total +. t;
      Hashtbl.iter
        (fun k l ->
          Hashtbl.replace by_name k (l @ Option.value ~default:[] (Hashtbl.find_opt by_name k)))
        names)
    traced_passes;
  let calls name = Option.value ~default:[] (Hashtbl.find_opt by_name name) in
  let sum l = List.fold_left ( +. ) 0. l in
  let share name = if !total = 0. then 0. else sum (calls name) /. !total in
  let median_of l = median (Array.of_list l) in
  let alloc name =
    match Hashtbl.find_opt allocs name with
    | Some (w, n) -> !w /. float_of_int !n
    | None -> 0.
  in
  let per x y = if y = 0 then 0. else float_of_int x /. float_of_int y in
  let per_op x = per x c.statements in
  (* every pass serves the same statements *)
  let per_pass x = per x (List.length passes) in
  let miss_ms = List.concat_map (fun p -> p.p_miss_ms) traced_passes in
  let hit_us = List.concat_map (fun p -> p.p_hit_us) traced_passes in
  let miss_total_ms = sum miss_ms in
  let busy l = sum (List.map (fun p -> p.p_busy_s) l) in
  let overhead = (busy traced_passes /. busy untraced_passes) -. 1. in
  let metrics =
    [
      ("sqlfront.parse_us", median_of (calls "sqlfront.parse") /. 1e3, "us");
      ("sqlfront.share", share "sqlfront.parse", "fraction");
      ("sqlfront.alloc_words", alloc "sqlfront.parse", "words");
      ("plansrv.hit_us", median_of hit_us, "us");
      ("plansrv.miss_ms", median_of miss_ms, "ms");
      ("plansrv.share", share "plansrv.serve_one", "fraction");
      ("plansrv.hit_ratio", per c.hits (c.hits + c.misses), "fraction");
      ("plansrv.alloc_words", alloc "plansrv.serve_one", "words");
      ("plansrv.invalidations", float_of_int c.invalidations, "count");
      ("plansrv.evictions", float_of_int c.evictions, "count");
      ("plansrv.rejected", float_of_int c.rejected, "count");
      ("plansrv.column_order_diffs", per_pass verdicts.column_order_diffs, "count");
      ("plansrv.column_name_diffs", per_pass verdicts.column_name_diffs, "count");
      ("volcano.tasks_per_miss", per c.tasks c.misses, "count");
      ( "volcano.us_per_task",
        (if c.tasks = 0 then 0.
         else miss_total_ms *. 1e3 /. float_of_int (c.tasks * List.length traced_passes)),
        "us" );
      ("volcano.goal_hit_ratio", per c.goal_hits (c.goal_hits + c.goals), "fraction");
      ("volcano.pruned_per_costed", per c.pruned c.costed, "fraction");
      ("volcano.promise_evals", float_of_int c.promise_evals, "count");
      ( "volcano.live_words_per_miss",
        (if c.misses = 0 then 0. else first.p_live_words /. float_of_int c.misses),
        "words" );
      ("relmodel.share", share "relmodel.to_physical", "fraction");
      ("executor.run_us", median_of (calls "executor.run") /. 1e3, "us");
      ("executor.share", share "executor.run", "fraction");
      ("executor.pages_per_op", per_op c.pages, "pages");
      ("executor.tuples_per_op", per_op c.tuples, "tuples");
      ("executor.alloc_words", alloc "executor.run", "words");
      ("catalog.update_stats_ms", median_of (calls "catalog.update_stats") /. 1e6, "ms");
      ("catalog.refreshes", float_of_int c.refreshes, "count");
      ("harness.share", share "harness", "fraction");
      ("trace.overhead", overhead, "fraction");
    ]
  in
  describe wl;
  Printf.printf "per-layer self time over %d traced passes of %d steps:\n"
    (List.length traced_passes) wl.round;
  Printf.printf "  %-24s %8s %12s %10s %8s\n" "layer" "calls" "self_ms" "median_us" "share";
  List.iter
    (fun name ->
      let l = calls name in
      if l <> [] then
        Printf.printf "  %-24s %8d %12.3f %10.2f %7.1f%%\n" name (List.length l)
          (sum l /. 1e6) (median_of l /. 1e3) (100. *. share name))
    [
      "sqlfront.parse"; "plansrv.serve_one"; "relmodel.to_physical"; "executor.run";
      "catalog.update_stats"; "harness";
    ];
  Printf.printf "counts per pass: %s\n"
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (count_fields c)));
  List.iter (fun (k, v, u) -> Printf.printf "%-28s %14.6f %s\n" k v u) metrics;
  (match trace_out, first.p_trace with
   | Some path, Some tr ->
     Obs.Chrome_trace.write path tr;
     Printf.printf "chrome trace of the first traced pass: %s (%d spans)\n" path
       (Obs.Trace.total tr)
   | _, _ -> ());
  report_checks book checks verdicts;
  let failed =
    List.fold_left (fun acc p -> acc + p.p_counts.failed) 0 passes + verdicts.rejected_results
  in
  let attempted = List.fold_left (fun acc p -> acc + p.p_counts.statements) 0 passes in
  let correct = failed = 0 && List.for_all (fun (_, ok, _) -> ok) checks in
  print_result ~correct ~attempted ~failed metrics

let () =
  let args = parse_args () in
  let wl = Option.get (Workloads.make args.workload ~seed:args.seed) in
  if args.trace then main_layers wl ~seconds:args.seconds ~trace_out:args.trace_out
  else main_e2e wl ~seconds:args.seconds
