(* volcano-cli: optimize and run SQL against a demo catalog.

   Subcommands:
     optimize  parse a SQL statement, print the logical tree, the
               optimized plan, search statistics; optionally execute it,
               compare with the EXODUS-style baseline, trace the search
               (--trace, --trace-out), or export metrics (--metrics-out)
     run       optimize and execute; --feedback instruments the execution
               with per-node cardinality counters, reports drift against
               the optimizer's estimates, and corrects the catalog
               statistics (--skew injects a known estimation error)
     explain   optimize and print winner provenance: per-node costs,
               producing rules, and losing alternatives with reasons
     tables    list the demo catalog
     workload  generate and optimize one paper-style random query
     repl      interactive SQL session with a shared optimizer memo
     serve     line-oriented optimization service over stdin or a batch
               file: fingerprinted plan cache, optional concurrent
               workers, cache observability counters
     batch     multi-query optimization over a SQL file: one shared
               memo, common-subexpression detection, and a
               materialize/reuse report (Volcano-SH / Volcano-RU) *)

open Relalg

let demo_catalog () =
  let catalog = Catalog.create () in
  ignore
    (Catalog.add_synthetic catalog ~name:"emp"
       ~columns:
         [
           ("id", Catalog.Serial);
           ("dept_id", Catalog.Uniform_int (0, 119));
           ("salary", Catalog.Uniform_int (30_000, 150_000));
           ("age", Catalog.Uniform_int (21, 65));
         ]
       ~rows:7_200 ~seed:7 ());
  ignore
    (Catalog.add_synthetic catalog ~name:"dept"
       ~columns:
         [
           ("id", Catalog.Serial);
           ("budget", Catalog.Uniform_int (100_000, 5_000_000));
           ("floor", Catalog.Uniform_int (1, 12));
         ]
       ~rows:1_200 ~seed:8 ());
  ignore
    (Catalog.add_synthetic catalog ~name:"proj"
       ~columns:
         [
           ("id", Catalog.Serial);
           ("dept_id", Catalog.Uniform_int (0, 119));
           ("cost", Catalog.Uniform_int (1_000, 900_000));
         ]
       ~rows:2_400 ~seed:9 ());
  catalog

let print_tables catalog =
  List.iter
    (fun (t : Catalog.table) ->
      Format.printf "%-6s %6d rows  %a@." t.name (Array.length t.tuples) Schema.pp t.schema)
    (Catalog.tables catalog)

(* The per-goal effort distribution: how many task spans each goal span
   directly parents. Long tails here are the goals worth staring at. *)
let goal_task_histogram reg tracer =
  let hist =
    Obs.Metrics.histogram reg ~help:"engine tasks directly under each goal"
      "volcano_goal_tasks"
  in
  let counts = Hashtbl.create 256 in
  let spans = Obs.Trace.spans tracer in
  List.iter
    (fun (sp : Obs.Trace.span) ->
      if sp.sp_cat = "goal" then Hashtbl.replace counts sp.sp_id 0)
    spans;
  List.iter
    (fun (sp : Obs.Trace.span) ->
      if sp.sp_cat = "task" then
        match Hashtbl.find_opt counts sp.sp_parent with
        | Some n -> Hashtbl.replace counts sp.sp_parent (n + 1)
        | None -> ())
    spans;
  Hashtbl.iter (fun _ n -> Obs.Metrics.observe hist (float_of_int n)) counts

(* The counters of the layers above the search, exported beside its own
   under the volcano_search_ prefix wherever search metrics are: the
   batch optimizer's sharing counters (0 without a batch report) and the
   feedback loop's (0 unless a live set is passed). *)
let register_layers ?report ?(feedback = Feedback.counters ()) reg =
  Mqo.register ?report reg;
  Feedback.register reg feedback

(* Post-run stderr summary of a span trace: the span count and the goal
   outcomes — bounded output no matter how large the search. *)
let print_trace_summary tracer =
  let spans = Obs.Trace.spans tracer in
  Format.eprintf "trace: %d spans@." (List.length spans);
  let outcomes = Hashtbl.create 8 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      if s.sp_cat = "goal" then
        let k = if s.sp_outcome = "" then "(open)" else s.sp_outcome in
        Hashtbl.replace outcomes k (1 + Option.value (Hashtbl.find_opt outcomes k) ~default:0))
    spans;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) outcomes []
  |> List.sort compare
  |> List.iter (fun (k, n) -> Format.eprintf "trace: goals %s: %d@." k n)

let run_optimize sql execute compare_exodus no_pruning no_guided left_deep max_steps
    timeout_ms trace trace_out metrics_out profile_out flightrec_out show_explain =
  let catalog = demo_catalog () in
  match Sqlfront.parse catalog sql with
  | exception Sqlfront.Parse_error msg ->
    Format.eprintf "parse error: %s@." msg;
    1
  | { logical; required } ->
    Format.printf "Logical query:@.%a@.@." Logical.pp logical;
    Format.printf "Required properties: %s@.@." (Phys_prop.to_string required);
    (* The goal-task histogram in --metrics-out is computed from spans,
       so a metrics request implies a (silent) tracer; the rule_* gauges
       likewise imply a (silent) profiler. All of it is plan-inert. *)
    let tracer =
      if trace || trace_out <> None || metrics_out <> None then
        Some (Obs.Trace.create ())
      else None
    in
    let profiler =
      if profile_out <> None || metrics_out <> None then Some (Obs.Profile.create ())
      else None
    in
    let recorder =
      Option.map (fun path -> Obs.Flight_recorder.create ~path ()) flightrec_out
    in
    let request =
      {
        (Relmodel.Optimizer.request catalog) with
        pruning = not no_pruning;
        guided_pruning = not no_guided;
        flags = { Relmodel.Rel_model.default_flags with left_deep_only = left_deep };
        max_tasks = max_steps;
        max_millis = timeout_ms;
        tracer;
        profiler;
        recorder;
        explain = show_explain;
      }
    in
    let result = Relmodel.Optimizer.optimize request logical ~required in
    Option.iter
      (fun tr ->
        if trace then begin
          print_trace_summary tr;
          Format.eprintf "trace summary: %a@." Volcano.Search_stats.pp_tasks
            result.stats
        end;
        Option.iter
          (fun path ->
            Obs.Chrome_trace.write path tr;
            Format.eprintf "wrote %s (%d spans)@." path (Obs.Trace.total tr))
          trace_out;
        Option.iter
          (fun path ->
            let reg = Obs.Metrics.create () in
            Volcano.Search_stats.register reg result.stats;
            register_layers reg;
            goal_task_histogram reg tr;
            Option.iter (fun pr -> Obs.Profile.register pr reg) profiler;
            Obs.Json.write_file path (Obs.Metrics.to_json reg);
            Format.eprintf "wrote %s@." path)
          metrics_out)
      tracer;
    Option.iter
      (fun path ->
        Option.iter
          (fun pr ->
            Obs.Json.write_file path (Obs.Profile.to_json pr);
            Format.eprintf "%a@." (Obs.Profile.pp_table ~top:20) pr;
            Format.eprintf "wrote %s (%d tasks attributed)@." path
              (Obs.Profile.total_tasks pr))
          profiler)
      profile_out;
    Option.iter
      (fun fr ->
        (* An abnormal end (budget pause) already dumped;
           otherwise dump now so the file always exists for tooling. *)
        if Obs.Flight_recorder.dumps fr = 0 then
          Obs.Flight_recorder.trigger fr ~reason:"end-of-run";
        Option.iter
          (fun path ->
            Format.eprintf "wrote %s (%d events recorded, %d dropped, reason %s)@."
              path
              (Obs.Flight_recorder.recorded fr)
              (Obs.Flight_recorder.dropped fr)
              (Obs.Flight_recorder.last_reason fr))
          flightrec_out)
      recorder;
    if not result.complete then
      Format.printf
        "Budget exhausted after %d tasks; showing the best plan found so far.@.@."
        result.tasks_run;
    (match result.plan with
     | None ->
       Format.printf "No plan found within the cost limit.@.";
     | Some plan ->
       Format.printf "Volcano plan (estimated cost %s):@.%s@.@."
         (Cost.to_string plan.cost)
         (Relmodel.Optimizer.explain plan);
       Option.iter
         (fun e -> Format.printf "Provenance (winners and losing alternatives):@.%s@." e)
         result.explain;
       Format.printf "Search: %a@." Volcano.Search_stats.pp result.stats;
       Format.printf "Tasks: %a@." Volcano.Search_stats.pp_tasks result.stats;
       Format.printf "Memo: %d groups, %d multi-expressions@.@." result.memo_groups
         result.memo_mexprs;
       if compare_exodus then begin
         let e = Exodus.optimize ~catalog ~max_nodes:200_000 logical ~required in
         match e.plan with
         | None -> Format.printf "EXODUS baseline: no plan (aborted=%b)@." e.aborted
         | Some eplan ->
           Format.printf "EXODUS baseline plan (estimated cost %s, nodes %d%s):@.%a@.@."
             (Cost.to_string (Relmodel.Plan_cost.estimate catalog eplan))
             e.stats.nodes
             (if e.aborted then ", aborted" else "")
             Physical.pp eplan
       end;
       if execute then begin
         let tuples, schema, io = Executor.run catalog (Relmodel.Optimizer.to_physical plan) in
         Format.printf "Result (%d rows; io: %a):@." (Array.length tuples)
           Executor.Io_stats.pp io;
         Format.printf "%s@." (String.concat " | " (Schema.names schema));
         Array.iteri
           (fun i t -> if i < 20 then Format.printf "%a@." Tuple.pp t)
           tuples;
         if Array.length tuples > 20 then
           Format.printf "... (%d more rows)@." (Array.length tuples - 20)
       end);
    0

let print_rows tuples schema io =
  Format.printf "Result (%d rows; io: %a):@." (Array.length tuples)
    Executor.Io_stats.pp io;
  Format.printf "%s@." (String.concat " | " (Schema.names schema));
  Array.iteri (fun i t -> if i < 20 then Format.printf "%a@." Tuple.pp t) tuples;
  if Array.length tuples > 20 then
    Format.printf "... (%d more rows)@." (Array.length tuples - 20)

let path_label = function
  | [] -> "root"
  | p -> String.concat "." (List.map string_of_int p)

let print_feedback_report (r : Feedback.report) =
  Format.printf "Feedback: %d nodes observed, %d drifted (threshold %.1fx)%s@."
    (List.length r.nodes) (List.length r.drifted) r.threshold
    (if r.escaped then Printf.sprintf "; escaped, %d replan(s)" r.replans else "");
  List.iter
    (fun (n : Feedback.node_obs) ->
      Format.printf "  drift [%s] %s: estimated %.0f, observed %d (%.1fx) over %s@."
        (path_label n.path) n.alg n.estimated n.observed n.ratio
        (String.concat ", " n.relations))
    r.drifted;
  List.iter
    (fun (c : Feedback.correction) ->
      Format.printf "  corrected %s (stats v%d): %s@." c.table c.stats_version c.detail)
    r.corrections

(* Doctor a table's claimed row count without touching its data: the
   instrument panel for demonstrating the feedback loop against a known
   estimation error. *)
let apply_skews catalog skews =
  List.iter
    (fun (table, factor) ->
      match Catalog.find_opt catalog table with
      | None -> Format.eprintf "skew: unknown table %s (ignored)@." table
      | Some tbl ->
        let s = tbl.Catalog.stats in
        let rc = Float.max 1. (s.Catalog.Stats.row_count *. factor) in
        let stats =
          {
            Catalog.Stats.row_count = rc;
            columns =
              List.map
                (fun (c, (cs : Catalog.Stats.column_stats)) ->
                  ( c,
                    {
                      cs with
                      Catalog.Stats.n_distinct =
                        Float.max 1. (Float.min cs.Catalog.Stats.n_distinct rc);
                    } ))
                s.Catalog.Stats.columns;
          }
        in
        Catalog.update_stats catalog ~table ~stats ();
        Format.eprintf "skew: %s claimed row count %.0f -> %.0f (data unchanged)@."
          table s.Catalog.Stats.row_count rc)
    skews

(* RUN: optimize and execute. Without --feedback this is the plain
   optimize-then-execute path, bit-identical to `optimize -x`; with it,
   execution is instrumented, drift is reported, and the catalog learns. *)
let run_run sql feedback drift_out escape_k threshold no_correct max_replans skews =
  let catalog = demo_catalog () in
  apply_skews catalog skews;
  match Sqlfront.parse catalog sql with
  | exception Sqlfront.Parse_error msg ->
    Format.eprintf "parse error: %s@." msg;
    1
  | { logical; required } ->
    let request = Relmodel.Optimizer.request catalog in
    if not feedback then begin
      let result = Relmodel.Optimizer.optimize request logical ~required in
      match result.plan with
      | None ->
        Format.printf "No plan found within the cost limit.@.";
        1
      | Some plan ->
        Format.printf "Plan (estimated cost %s):@.%s@.@." (Cost.to_string plan.cost)
          (Relmodel.Optimizer.explain plan);
        let tuples, schema, io =
          Executor.run catalog (Relmodel.Optimizer.to_physical plan)
        in
        print_rows tuples schema io;
        0
    end
    else begin
      let config =
        Feedback.config ~drift_threshold:threshold ?escape_factor:escape_k
          ~correct:(not no_correct) ~max_replans ()
      in
      match Feedback.run ~config request logical ~required with
      | exception Invalid_argument msg ->
        Format.eprintf "%s@." msg;
        1
      | outcome ->
        Format.printf "Plan (estimated cost %s):@.%s@.@."
          (Cost.to_string outcome.plan.cost)
          (Relmodel.Optimizer.explain outcome.plan);
        print_rows outcome.tuples outcome.schema outcome.io;
        Format.printf "@.";
        print_feedback_report outcome.report;
        Format.printf "Measured work: %.0f@."
          (Feedback.measured_work
             (Relmodel.Optimizer.to_physical outcome.plan)
             outcome.report.nodes ~io:outcome.io);
        Option.iter
          (fun path ->
            Obs.Json.write_file path (Feedback.report_to_json outcome.report);
            Format.eprintf "wrote %s@." path)
          drift_out;
        0
    end

(* EXPLAIN: optimize with alternative recording on and print the winner
   provenance tree — per-node costs, producing rules, and the losing
   alternatives of every goal with the reason each lost. *)
let run_explain sql no_pruning no_guided left_deep =
  let catalog = demo_catalog () in
  match Sqlfront.parse catalog sql with
  | exception Sqlfront.Parse_error msg ->
    Format.eprintf "parse error: %s@." msg;
    1
  | { logical; required } ->
    let request =
      {
        (Relmodel.Optimizer.request catalog) with
        pruning = not no_pruning;
        guided_pruning = not no_guided;
        flags = { Relmodel.Rel_model.default_flags with left_deep_only = left_deep };
        explain = true;
      }
    in
    let result = Relmodel.Optimizer.optimize request logical ~required in
    (match result.plan, result.explain with
     | None, _ ->
       Format.printf "No plan found within the cost limit.@.";
     | Some plan, provenance ->
       Format.printf "Winning plan (estimated cost %s):@." (Cost.to_string plan.cost);
       (match provenance with
        | Some e -> Format.printf "%s" e
        | None -> Format.printf "%s@." (Relmodel.Optimizer.explain plan)));
    0

let run_tables () =
  print_tables (demo_catalog ());
  0

let run_repl () =
  let catalog = demo_catalog () in
  let session = Relmodel.Optimizer.session (Relmodel.Optimizer.request catalog) in
  Format.printf
    "volcano-cli repl — demo tables: emp, dept, proj. Empty line or ctrl-d quits.@.";
  print_tables catalog;
  let rec loop () =
    Format.printf "@.sql> %!";
    match In_channel.input_line stdin with
    | None | Some "" -> 0
    | Some line -> begin
      (* Any failure — parse, optimize, or execute — is reported and
         the session (with its shared memo) survives for the next
         statement. *)
      (try
         match Sqlfront.parse catalog line with
         | exception Sqlfront.Parse_error msg -> Format.printf "parse error: %s@." msg
         | { logical; required } -> begin
           match (Relmodel.Optimizer.optimize_in session logical ~required).plan with
           | None -> Format.printf "no plan@."
           | Some plan ->
             Format.printf "%s@." (Relmodel.Optimizer.explain plan);
             let rows, schema, _ = Executor.run catalog (Relmodel.Optimizer.to_physical plan) in
             Format.printf "%s@." (String.concat " | " (Schema.names schema));
             Array.iteri (fun i t -> if i < 10 then Format.printf "%a@." Tuple.pp t) rows;
             if Array.length rows > 10 then
               Format.printf "... (%d rows total)@." (Array.length rows)
         end
       with
      | Stack_overflow | Out_of_memory -> Format.printf "error: resource exhausted@."
      | exn -> Format.printf "error: %s@." (Printexc.to_string exn));
      loop ()
    end
  in
  loop ()

(* A deliberately minimal HTTP/1.1 responder for the metrics endpoint:
   one request per connection, no keep-alive. Minimal is not sloppy:
   the request is read to its header terminator (not a single read),
   unknown paths get a real 404, a malformed request line a 400, and a
   handler failure a 500 — never a silently closed connection. *)
let http_header_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then false
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then true
    else go (i + 1)
  in
  go 0

let http_read_request fd =
  let chunk = Bytes.create 1024 in
  let buf = Buffer.create 512 in
  let rec go () =
    if Buffer.length buf > 16_384 || http_header_end (Buffer.contents buf) then
      Buffer.contents buf
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 | (exception Unix.Unix_error _) -> Buffer.contents buf
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ()

let http_write fd status ctype body =
  let resp =
    Printf.sprintf
      "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
       close\r\n\r\n%s"
      status ctype (String.length body) body
  in
  ignore (Unix.write_substring fd resp 0 (String.length resp))

let serve_metrics srv profiler port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 16;
  Format.printf
    "metrics: http://127.0.0.1:%d/metrics (Prometheus text), /metrics.json, \
     /status, /slow, /profile@."
    port;
  Format.print_flush ();
  let reg = Plansrv.registry srv in
  let json j = ("200 OK", "application/json", Obs.Json.to_string j) in
  let rec loop () =
    let fd, _ = Unix.accept sock in
    (try
       let request = http_read_request fd in
       let request_line =
         match String.index_opt request '\r' with
         | Some i -> String.sub request 0 i
         | None -> request
       in
       let status, ctype, body =
         match String.split_on_char ' ' request_line with
         | [ _meth; path; _version ] -> begin
           match path with
           | "/metrics" ->
             ("200 OK", "text/plain; version=0.0.4", Obs.Metrics.to_prometheus reg)
           | "/metrics.json" -> json (Obs.Metrics.to_json reg)
           | "/status" -> json (Plansrv.status_json srv)
           | "/slow" -> json (Plansrv.slow_log_json srv)
           | "/profile" -> json (Obs.Profile.to_json profiler)
           | _ -> ("404 Not Found", "text/plain", "not found\n")
         end
         | _ -> ("400 Bad Request", "text/plain", "malformed request line\n")
       in
       http_write fd status ctype body
     with _ -> (
       try http_write fd "500 Internal Server Error" "text/plain" "internal error\n"
       with _ -> ()));
    (try Unix.close fd with Unix.Unix_error _ -> ());
    loop ()
  in
  loop ()

(* One SQL statement per line; blank lines and # comments are skipped. *)
let statements_of_lines lines =
  List.filter
    (fun line ->
      let line = String.trim line in
      line <> "" && line.[0] <> '#')
    lines

let parse_statements catalog statements =
  List.filter_map
    (fun line ->
      match Sqlfront.parse catalog line with
      | exception Sqlfront.Parse_error msg ->
        Format.eprintf "parse error (skipped): %s  -- %s@." msg line;
        None
      | { Sqlfront.logical; required } -> Some (line, logical, required))
    statements

let print_response line (r : Plansrv.response) =
  let outcome =
    match r.Plansrv.outcome with
    | Plansrv.Hit -> "HIT"
    | Plansrv.Miss -> "MISS"
    | Plansrv.Invalidated -> "STALE"
  in
  let cost =
    match r.Plansrv.plan with
    | Some plan -> Cost.to_string plan.cost
    | None -> "no plan"
  in
  let fp =
    if String.length r.Plansrv.fingerprint <= 32 then r.Plansrv.fingerprint
    else String.sub r.Plansrv.fingerprint 0 32 ^ "..."
  in
  Format.printf "%-5s %8.3f ms  cost %-14s %s%s  [%s]@." outcome r.Plansrv.latency_ms
    cost
    (if r.Plansrv.parameterized then "param " else "")
    line fp

let run_serve file workers capacity parameterize feedback skews metrics_port slow_ms =
  let catalog = demo_catalog () in
  apply_skews catalog skews;
  (* Every cache-miss optimization feeds the service-wide profiler, so
     /profile attributes the service's cumulative search effort to
     rules and enforcers. Plan-inert by contract. *)
  let profiler = Obs.Profile.create () in
  let srv =
    Plansrv.create
      (Plansrv.config ~capacity ~parameterize ~slow_ms
         { (Relmodel.Optimizer.request catalog) with profiler = Some profiler })
  in
  let fb_counters = Feedback.counters () in
  register_layers ~feedback:fb_counters (Plansrv.registry srv);
  let lines =
    match file with
    | Some path -> In_channel.with_open_text path In_channel.input_lines
    | None -> In_channel.input_lines stdin
  in
  let parsed = parse_statements catalog (statements_of_lines lines) in
  if parsed = [] then begin
    Format.eprintf "no statements to serve@.";
    1
  end
  else begin
    if feedback then begin
      (* Feedback serving is the closed loop, one statement at a time:
         serve a plan, execute it instrumented, install corrections —
         and let the bumped statistics stamps turn the next arrival of
         an affected query into a STALE re-optimization. *)
      if workers > 1 then
        Format.eprintf "feedback serving is sequential; ignoring --workers %d@." workers;
      let w = Plansrv.worker srv in
      let fb_config = Feedback.config () in
      let request = Plansrv.service_request srv in
      List.iter
        (fun (line, logical, required) ->
          let r = Plansrv.serve_one srv w logical ~required in
          print_response line r;
          match r.Plansrv.plan with
          | None -> ()
          | Some plan ->
            let outcome = Feedback.run_plan ~config:fb_config request logical ~required plan in
            let rep = outcome.Feedback.report in
            Plansrv.note_search srv rep.Feedback.stats;
            Feedback.add_counters ~into:fb_counters rep.Feedback.counters;
            if rep.Feedback.drifted <> [] then
              Format.printf "      FEEDBACK %d/%d nodes drifted (threshold %.1fx)@."
                (List.length rep.Feedback.drifted)
                (List.length rep.Feedback.nodes)
                rep.Feedback.threshold;
            List.iter
              (fun (c : Feedback.correction) ->
                Format.printf "      FEEDBACK corrected %s -> stats v%d (%s)@." c.table
                  c.stats_version c.detail)
              rep.Feedback.corrections)
        parsed
    end
    else begin
      let requests =
        Array.of_list
          (List.map (fun (_, logical, required) -> (logical, required)) parsed)
      in
      let responses = Plansrv.serve ~workers srv requests in
      List.iteri (fun i (line, _, _) -> print_response line responses.(i)) parsed
    end;
    Format.printf "@.%a@." Plansrv.pp_metrics (Plansrv.metrics srv);
    if feedback then Format.printf "feedback: %a@." Feedback.pp_counters fb_counters;
    match metrics_port with
    | None -> 0
    | Some port ->
      (* Keep the service alive and export its registry over HTTP until
         the process is killed. *)
      serve_metrics srv profiler port
  end

(* Multi-query optimization over a SQL file: every statement goes into
   one shared memo (through the plan service's cache), common
   subexpressions are detected by per-subtree fingerprints, and the
   selected strategy decides which shared results to materialize once
   and rescan instead of recomputing per consumer. *)
let run_batch file strategy capacity metrics_out =
  let catalog = demo_catalog () in
  let lines = In_channel.with_open_text file In_channel.input_lines in
  let parsed = parse_statements catalog (statements_of_lines lines) in
  if parsed = [] then begin
    Format.eprintf "no statements to optimize@.";
    1
  end
  else begin
    let srv =
      Plansrv.create
        (Plansrv.config ~capacity (Relmodel.Optimizer.request catalog))
    in
    let w = Plansrv.worker srv in
    let queries = List.map (fun (_, logical, required) -> (logical, required)) parsed in
    let report, _responses = Mqo.serve_batch ~strategy srv w queries in
    Format.printf "Batch of %d statements, strategy %s:@.@." (List.length parsed)
      (Mqo.strategy_name report.strategy);
    List.iteri
      (fun i (line, _, _) ->
        let qr = List.nth report.results i in
        let reused =
          match qr.Mqo.reused with
          | [] -> ""
          | names -> "  reuses " ^ String.concat ", " names
        in
        Format.printf "[%d] independent %-14s batch %-14s%s@.    %s@." i
          (Cost.to_string qr.Mqo.independent_cost)
          (Cost.to_string qr.Mqo.final_cost)
          reused line;
        match qr.Mqo.plan with
        | None -> Format.printf "    no plan@."
        | Some plan -> Format.printf "%s@." (Relmodel.Optimizer.explain plan))
      parsed;
    if report.shared = [] then
      Format.printf "@.No shared subexpressions across the batch.@."
    else begin
      Format.printf "@.Shared subexpressions (%d spanning 2+ queries):@."
        report.shared_groups;
      List.iter
        (fun (s : Mqo.shared) ->
          Format.printf "  %s  over %s@."
            (if s.chosen then "MATERIALIZE " ^ s.mat_name else "recompute")
            (String.concat " * " s.relations);
          (match s.producer with
           | Some q -> Format.printf "    producer: query %d@." q
           | None -> ());
          Format.printf "    consumers: %s@."
            (String.concat ", " (List.map string_of_int s.consumers));
          Format.printf "    compute %s  write %s  read %s@."
            (Cost.to_string s.compute) (Cost.to_string s.write) (Cost.to_string s.read))
        report.shared
    end;
    let saved = report.independent_total -. report.batch_total in
    Format.printf "@.Independent total: %.6f s@." report.independent_total;
    Format.printf "Batch total:       %.6f s@." report.batch_total;
    Format.printf "Saved:             %.6f s (%.1f%%)@." saved
      (if report.independent_total > 0. then 100. *. saved /. report.independent_total
       else 0.);
    Format.printf "Sharing: %d shared groups, %d materialized, %d reuse sites@."
      report.shared_groups report.materialize_chosen report.reuse_hits;
    Option.iter
      (fun path ->
        let reg = Plansrv.registry srv in
        register_layers ~report reg;
        Obs.Json.write_file path (Obs.Metrics.to_json reg);
        Format.eprintf "wrote %s@." path)
      metrics_out;
    0
  end

let run_workload n seed shape skew correlation =
  let spec = Workload.spec ~shape ~skew ?correlation ~n_relations:n ~seed () in
  let q = Workload.generate spec in
  Format.printf "Random %d-relation %s query (%d join edges):@.%a@.@." n
    (Workload.shape_name shape) (List.length q.edges) Logical.pp q.logical;
  let result =
    Relmodel.Optimizer.optimize (Relmodel.Optimizer.request q.catalog) q.logical
      ~required:Phys_prop.any
  in
  (match result.plan with
   | None -> Format.printf "no plan@."
   | Some plan ->
     Format.printf "Best plan (cost %s):@.%s@.@." (Cost.to_string plan.cost)
       (Relmodel.Optimizer.explain plan);
     Format.printf "Search: %a@." Volcano.Search_stats.pp result.stats;
     Format.printf "Tasks: %a@." Volcano.Search_stats.pp_tasks result.stats);
  0

open Cmdliner

(* Worker/capacity counts must be >= 1: a zero or negative count
   is a spelled-out usage error, not a silent clamp. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "expected a positive count, got %d" n))
    | None -> Error (`Msg (Printf.sprintf "expected a positive count, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* A query file must exist, be readable, and contain at least one
   statement — checked up front on `batch` and `serve` so a typo'd or
   empty path is a spelled-out usage error, not a late failure. *)
let query_file =
  let parse path =
    match In_channel.with_open_text path In_channel.input_lines with
    | exception Sys_error e -> Error (`Msg (Printf.sprintf "unreadable query file: %s" e))
    | lines ->
      let statements =
        List.filter
          (fun line ->
            let line = String.trim line in
            line <> "" && line.[0] <> '#')
          lines
      in
      if statements = [] then
        Error
          (`Msg
            (Printf.sprintf "query file %s is empty (no statements, only blanks/comments)"
               path))
      else Ok path
  in
  Arg.conv ~docv:"FILE" (parse, Format.pp_print_string)

let sql_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SQL" ~doc:"SQL statement to optimize (quote it).")

let optimize_cmd =
  let execute =
    Arg.(value & flag & info [ "execute"; "x" ] ~doc:"Execute the plan and print rows.")
  in
  let exodus =
    Arg.(value & flag & info [ "exodus" ] ~doc:"Also optimize with the EXODUS-style baseline.")
  in
  let no_pruning =
    Arg.(value & flag & info [ "no-pruning" ] ~doc:"Disable branch-and-bound pruning.")
  in
  let no_guided =
    Arg.(
      value & flag
      & info [ "no-guided-pruning" ]
          ~doc:
            "Keep plain Figure-2 branch-and-bound but disable the guided layer: group \
             cost lower bounds, lower-bound goal kills, and sibling-aware input limits.")
  in
  let left_deep =
    Arg.(value & flag & info [ "left-deep" ] ~doc:"Restrict join plans to left-deep shape.")
  in
  let max_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "Deterministic step budget: stop after N engine tasks and return the best \
             plan found so far (anytime optimization).")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Wall-clock budget in milliseconds; same anytime semantics as max-steps.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Collect hierarchical search spans (goals and tasks) and print a \
             span-count / per-outcome summary to stderr.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the span trace to $(docv) in the Chrome trace event format \
             (load in chrome://tracing or Perfetto).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write a JSON metrics snapshot to $(docv): every search counter plus the \
             per-goal task-count histogram.")
  in
  let profile_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-out" ] ~docv:"FILE"
          ~doc:
            "Profile the search and write per-rule / per-enforcer / per-operator \
             effort attribution to $(docv) as JSON (tasks, mexprs generated, plans \
             won, goals pruned, wasted work, cumulative task time); a top-N table \
             goes to stderr. Profiling is plan-inert: the found plan is \
             bit-identical with or without it.")
  in
  let flightrec_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flightrec-out" ] ~docv:"FILE"
          ~doc:
            "Arm the flight recorder: a fixed-size ring of recent engine events \
             (task begin/end, publish, prune, incumbent), dumped to $(docv) when \
             the search pauses on a budget (and at end-of-run otherwise, so the \
             file always exists).")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Record losing alternatives during the search and print the winner \
             provenance tree (see also the $(b,explain) subcommand).")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Optimize (and optionally run) a SQL statement")
    Term.(
      const run_optimize $ sql_arg $ execute $ exodus $ no_pruning $ no_guided
      $ left_deep $ max_steps $ timeout_ms $ trace $ trace_out $ metrics_out
      $ profile_out $ flightrec_out $ explain)

let skew_conv =
  let parse s =
    match String.index_opt s ':' with
    | Some i -> begin
      let table = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match float_of_string_opt rest with
      | Some f when f > 0. && table <> "" -> Ok (table, f)
      | _ ->
        Error (`Msg (Printf.sprintf "expected TABLE:FACTOR with FACTOR > 0, got %S" s))
    end
    | None -> Error (`Msg (Printf.sprintf "expected TABLE:FACTOR, got %S" s))
  in
  Arg.conv ~docv:"TABLE:FACTOR" (parse, fun ppf (t, f) -> Format.fprintf ppf "%s:%g" t f)

let skew_arg =
  Arg.(
    value
    & opt_all skew_conv []
    & info [ "skew" ] ~docv:"TABLE:FACTOR"
        ~doc:
          "Multiply $(b,TABLE)'s claimed row count by $(b,FACTOR) before optimizing \
           (the stored data is untouched), injecting a known estimation error for \
           the feedback loop to discover. Repeatable.")

let run_cmd =
  let feedback =
    Arg.(
      value & flag
      & info [ "feedback" ]
          ~doc:
            "Instrument the execution with per-node cardinality counters, report \
             estimate-vs-actual drift, and correct the catalog statistics the drift \
             incriminates (bumping their versions, so cached plans invalidate). \
             Without this flag the command is plain optimize-then-execute with \
             bit-identical results.")
  in
  let drift_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "drift-out" ] ~docv:"FILE"
          ~doc:
            "Write the drift report to $(docv) as JSON: per-node estimated vs \
             observed cardinalities, q-errors, corrections installed, and the \
             $(b,feedback_*) counters (validate with $(b,validate_obs drift)).")
  in
  let escape_k =
    Arg.(
      value
      & opt (some float) None
      & info [ "escape-k" ] ~docv:"K"
          ~doc:
            "Arm the mid-query escape hatch: abort as soon as any node's observed \
             cardinality exceeds K times its estimate, correct the offending \
             statistic, and re-optimize (at most $(b,--max-replans) times). With \
             exact estimates the hatch never fires. K must be >= 1.")
  in
  let threshold =
    Arg.(
      value & opt float 2.
      & info [ "drift-threshold" ] ~docv:"Q"
          ~doc:
            "q-error at or above which a node counts as drifted and feeds a \
             correction; must be >= 1 (1 flags every inexact estimate).")
  in
  let no_correct =
    Arg.(
      value & flag
      & info [ "no-correct" ]
          ~doc:"Observe and report drift only; leave the catalog statistics alone.")
  in
  let max_replans =
    Arg.(
      value & opt int 1
      & info [ "max-replans" ] ~docv:"N"
          ~doc:"Escape-hatch re-optimization budget (the final attempt always runs \
                to completion).")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Optimize and execute a SQL statement; with $(b,--feedback), observe \
          actual per-node cardinalities, report drift against the optimizer's \
          estimates, and feed corrections back into the catalog")
    Term.(
      const run_run $ sql_arg $ feedback $ drift_out $ escape_k $ threshold
      $ no_correct $ max_replans $ skew_arg)

let explain_cmd =
  let no_pruning =
    Arg.(value & flag & info [ "no-pruning" ] ~doc:"Disable branch-and-bound pruning.")
  in
  let no_guided =
    Arg.(
      value & flag
      & info [ "no-guided-pruning" ] ~doc:"Disable the guided pruning layer.")
  in
  let left_deep =
    Arg.(value & flag & info [ "left-deep" ] ~doc:"Restrict join plans to left-deep shape.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Optimize a SQL statement and print winner provenance: per-node costs, the \
          implementation rule that produced each node, and every goal's losing \
          alternatives with the reason each lost")
    Term.(
      const run_explain $ sql_arg $ no_pruning $ no_guided $ left_deep)

let tables_cmd =
  Cmd.v (Cmd.info "tables" ~doc:"List the demo catalog") Term.(const run_tables $ const ())

let repl_cmd =
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive SQL session over the demo catalog")
    Term.(const run_repl $ const ())

let serve_cmd =
  let file =
    Arg.(
      value
      & opt (some query_file) None
      & info [ "file"; "f" ] ~docv:"FILE"
          ~doc:
            "Read SQL statements (one per line, # comments) from $(docv) instead of \
             stdin. The file must be readable and contain at least one statement.")
  in
  let workers =
    Arg.(
      value & opt pos_int 1
      & info [ "workers" ] ~docv:"N" ~doc:"Serving domains pulling from the request queue.")
  in
  let capacity =
    Arg.(
      value & opt pos_int 512
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Plan-cache entries; an insertion past $(docv) evicts the oldest.")
  in
  let parameterize =
    Arg.(
      value & flag
      & info [ "parameterize" ]
          ~doc:
            "Erase the single numeric literal from fingerprints so one dynamic-plan \
             entry serves a whole range of constants.")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "After serving the batch, keep running and export the service's \
             observability on 127.0.0.1:$(docv): $(b,/metrics) (Prometheus text), \
             $(b,/metrics.json), $(b,/status) (service status JSON), $(b,/slow) \
             (slow-query log with captured EXPLAIN provenance), and $(b,/profile) \
             (per-rule search effort attribution).")
  in
  let slow_ms =
    Arg.(
      value & opt float 50.
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-query threshold: responses at or above $(docv) milliseconds land \
             in the slow-query log served on $(b,/slow).")
  in
  let feedback =
    Arg.(
      value & flag
      & info [ "feedback" ]
          ~doc:
            "Close the loop: execute every served plan with cardinality \
             instrumentation, correct drifted catalog statistics, and let the bumped \
             statistics versions invalidate affected cache entries — a repeated \
             query goes MISS, then STALE (re-optimized against corrected stats), \
             then HIT. Forces sequential serving.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Optimization service: fingerprinted plan cache over a batch of statements")
    Term.(
      const run_serve $ file $ workers $ capacity $ parameterize $ feedback
      $ skew_arg $ metrics_port $ slow_ms)

let batch_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some query_file) None
      & info [] ~docv:"FILE"
          ~doc:
            "SQL statements to optimize as one batch (one per line, # comments). The \
             file must be readable and contain at least one statement.")
  in
  let strategy =
    let strategy_conv =
      let parse s =
        match Mqo.strategy_of_string s with
        | Some st -> Ok st
        | None ->
          Error
            (`Msg (Printf.sprintf "unknown strategy %S (expected off, sh, or ru)" s))
      in
      Arg.conv ~docv:"STRATEGY"
        (parse, fun ppf s -> Format.pp_print_string ppf (Mqo.strategy_name s))
    in
    Arg.(
      value
      & opt strategy_conv Mqo.Volcano_sh
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Sharing strategy: $(b,sh) (Volcano-SH: cost-based post-pass over the \
             independently-optimal plans; the default), $(b,ru) (Volcano-RU: \
             reuse-aware re-optimization in arrival order), or $(b,off) (independent \
             optimization in the shared memo — bit-identical plans, no sharing).")
  in
  let capacity =
    Arg.(
      value & opt pos_int 512
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Plan-cache entries; an insertion past $(docv) evicts the oldest.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the service's metrics registry (cache counters plus merged search \
             effort, including the $(b,mqo_*) counters) to $(docv) as JSON.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Multi-query optimization: load a SQL file into one shared memo, detect \
          common subexpressions, and materialize/reuse shared results when that \
          lowers the batch cost")
    Term.(
      const run_batch $ file $ strategy $ capacity $ metrics_out)

let workload_cmd =
  let n =
    Arg.(
      value & opt pos_int 4
      & info [ "n" ] ~docv:"N"
          ~doc:"Number of input relations (a positive count; the paper uses 2-10).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.") in
  let shape_conv =
    Arg.enum (List.map (fun s -> (Workload.shape_name s, s)) Workload.all_shapes)
  in
  let shape =
    Arg.(
      value & opt shape_conv Workload.Chain
      & info [ "shape" ] ~docv:"SHAPE"
          ~doc:
            "Join-graph topology: $(b,chain), $(b,star), $(b,random), $(b,clique), \
             $(b,cycle), $(b,grid), or $(b,snowflake).")
  in
  (* Skew and correlation are probabilities/exponents on [0, 1]: anything
     outside that range is a spelled-out usage error (mirroring pos_int),
     caught at parse time rather than as a late Invalid_argument. *)
  let unit_float what =
    let parse s =
      match float_of_string_opt s with
      | Some f when f >= 0. && f <= 1. -> Ok f
      | Some f ->
        Error (`Msg (Printf.sprintf "expected a %s within [0, 1], got %g" what f))
      | None ->
        Error (`Msg (Printf.sprintf "expected a %s within [0, 1], got %S" what s))
    in
    Arg.conv ~docv:"F" (parse, Format.pp_print_float)
  in
  let skew =
    Arg.(
      value
      & opt (unit_float "skew factor") 0.
      & info [ "skew" ] ~docv:"F"
          ~doc:
            "Per-table statistics skew in [0, 1]: 0 (the default) draws relation \
             sizes uniformly as the paper does; above 0, relation $(i,i) gets \
             max_rows / (i+1)^(2*F) rows — a zipf-like size ladder.")
  in
  let correlation =
    Arg.(
      value
      & opt (some (unit_float "correlation")) None
      & info [ "correlation" ] ~docv:"F"
          ~doc:
            "Probability in [0, 1] that a join edge reuses the shared key column \
             (correlated predicates and shared interesting orders). Without this \
             flag the legacy fixed 3/4 draw is kept.")
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "Generate and optimize a paper-style random query over a chosen join-graph \
          topology, with optional statistics skew and predicate correlation")
    Term.(const run_workload $ n $ seed $ shape $ skew $ correlation)

let () =
  let doc = "The Volcano optimizer generator (Graefe & McKenna, ICDE 1993)" in
  let info = Cmd.info "volcano-cli" ~version:"1.0.0" ~doc in
  (* With no subcommand, render the help page (which lists every
     subcommand with its one-line summary) instead of erroring out. *)
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            optimize_cmd;
            run_cmd;
            explain_cmd;
            tables_cmd;
            workload_cmd;
            repl_cmd;
            serve_cmd;
            batch_cmd;
          ]))
