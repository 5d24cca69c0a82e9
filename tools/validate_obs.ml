(* Shape validators for the observability artifacts, used by CI smoke
   jobs: Chrome traces from [volcano-cli optimize --trace-out], metrics
   snapshots from [--metrics-out], and the benchmark JSON reports.
   Exits 1 with a message on the first violation, so a CI step is just
   [validate_obs trace trace.json].

   Usage:
     validate_obs trace FILE       Chrome trace event file
     validate_obs metrics FILE     metrics snapshot (counters/gauges/histograms)
     validate_obs drift FILE       drift report from [volcano-cli run --feedback]
     validate_obs bench FILE...    BENCH_*.json reports (the one report schema)
     validate_obs profile FILE     search profile from [optimize --profile-out]
     validate_obs flightrec FILE   flight-recorder dump from [--flightrec-out] *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("validate_obs: " ^ s);
      exit 1)
    fmt

let load path =
  match Obs.Json.read_file path with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e

let str_field name ev = Option.bind (Obs.Json.member name ev) Obs.Json.to_str

let num_field name ev = Option.bind (Obs.Json.member name ev) Obs.Json.to_float

(* A Chrome trace: {"traceEvents": [...], "displayTimeUnit": "ms"},
   every event a complete span ("X") or track metadata ("M") with
   non-negative microsecond timestamps, and track 0 (the sequential
   engine) present. *)
let validate_trace path =
  let j = load path in
  (match str_field "displayTimeUnit" j with
   | Some "ms" -> ()
   | _ -> fail "%s: displayTimeUnit is not \"ms\"" path);
  let events =
    match Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.to_list with
    | Some [] -> fail "%s: traceEvents is empty" path
    | Some l -> l
    | None -> fail "%s: traceEvents missing or not an array" path
  in
  let tracks = Hashtbl.create 8 in
  List.iteri
    (fun i ev ->
      let ph =
        match str_field "ph" ev with
        | Some ph -> ph
        | None -> fail "%s: event %d has no ph" path i
      in
      if ph <> "X" && ph <> "M" then fail "%s: event %d has ph %S" path i ph;
      if str_field "name" ev = None then fail "%s: event %d has no name" path i;
      let tid =
        match Option.bind (Obs.Json.member "tid" ev) Obs.Json.to_int with
        | Some tid -> tid
        | None -> fail "%s: event %d has no tid" path i
      in
      if ph = "X" then begin
        Hashtbl.replace tracks tid ();
        (match num_field "ts" ev with
         | Some ts when ts >= 0. -> ()
         | _ -> fail "%s: event %d has a bad ts" path i);
        (match num_field "dur" ev with
         | Some dur when dur >= 0. -> ()
         | _ -> fail "%s: event %d has a bad dur" path i);
        match str_field "cat" ev with
        | Some ("task" | "goal" | "phase") -> ()
        | _ -> fail "%s: event %d has an unknown cat" path i
      end)
    events;
  if not (Hashtbl.mem tracks 0) then fail "%s: no spans on track 0" path;
  Printf.printf "OK %s: %d events, %d tracks\n" path (List.length events)
    (Hashtbl.length tracks)

(* A metrics snapshot: counters/gauges/histograms objects, every search
   counter from the glossary present as a gauge, every histogram with
   count/sum/max/p50/p95/p99. *)
let validate_metrics path =
  let j = load path in
  let section name =
    match Obs.Json.member name j with
    | Some (Obs.Json.Obj fields) -> fields
    | _ -> fail "%s: %s missing or not an object" path name
  in
  ignore (section "counters");
  let gauges = section "gauges" in
  List.iter
    (fun name ->
      if not (List.mem_assoc name gauges) then
        fail "%s: search gauge %s missing" path name)
    (Volcano.Search_stats.metric_names "volcano_search_");
  let histograms = section "histograms" in
  List.iter
    (fun (name, h) ->
      List.iter
        (fun field ->
          match num_field field h with
          | Some v when v >= 0. -> ()
          | _ -> fail "%s: histogram %s has a bad %s" path name field)
        [ "count"; "sum"; "max"; "p50"; "p95"; "p99" ])
    histograms;
  Printf.printf "OK %s: %d gauges, %d histograms\n" path (List.length gauges)
    (List.length histograms)

(* A drift report from [volcano-cli run --feedback --drift-out]: a
   threshold >= 1, a non-empty nodes array whose entries each carry
   path/alg/estimated/observed/ratio/complete with ratio >= 1, exactly
   one observation per distinct path with the root ([]) present,
   corrections with table/detail/stats_version, and every feedback_*
   counter from the metric glossary under "stats". *)
let validate_drift path =
  let j = load path in
  (match num_field "drift_threshold" j with
   | Some t when t >= 1. -> ()
   | _ -> fail "%s: drift_threshold missing or < 1" path);
  let nodes =
    match Option.bind (Obs.Json.member "nodes" j) Obs.Json.to_list with
    | Some [] -> fail "%s: nodes is empty" path
    | Some l -> l
    | None -> fail "%s: nodes missing or not an array" path
  in
  let paths = Hashtbl.create 16 in
  List.iteri
    (fun i n ->
      let node_path =
        match Option.bind (Obs.Json.member "path" n) Obs.Json.to_list with
        | Some p -> List.map (fun step ->
            match Obs.Json.to_int step with
            | Some s -> s
            | None -> fail "%s: node %d has a non-integer path step" path i) p
        | None -> fail "%s: node %d has no path" path i
      in
      if Hashtbl.mem paths node_path then
        fail "%s: node %d repeats a plan path" path i;
      Hashtbl.replace paths node_path ();
      if str_field "alg" n = None then fail "%s: node %d has no alg" path i;
      (match num_field "estimated" n with
       | Some e when e >= 0. -> ()
       | _ -> fail "%s: node %d has a bad estimate" path i);
      (match Option.bind (Obs.Json.member "observed" n) Obs.Json.to_int with
       | Some o when o >= 0 -> ()
       | _ -> fail "%s: node %d has a bad observed count" path i);
      (match num_field "ratio" n with
       | Some r when r >= 1. -> ()
       | _ -> fail "%s: node %d has a q-error below 1" path i);
      match Obs.Json.member "complete" n with
      | Some (Obs.Json.Bool _) -> ()
      | _ -> fail "%s: node %d has no completeness flag" path i)
    nodes;
  if not (Hashtbl.mem paths []) then fail "%s: no observation for the plan root" path;
  let corrections =
    match Option.bind (Obs.Json.member "corrections" j) Obs.Json.to_list with
    | Some l -> l
    | None -> fail "%s: corrections missing or not an array" path
  in
  List.iteri
    (fun i c ->
      if str_field "table" c = None then fail "%s: correction %d has no table" path i;
      if str_field "detail" c = None then fail "%s: correction %d has no detail" path i;
      match Option.bind (Obs.Json.member "stats_version" c) Obs.Json.to_int with
      | Some v when v >= 1 -> ()
      | _ -> fail "%s: correction %d has a bad stats_version" path i)
    corrections;
  (match Obs.Json.member "escaped" j with
   | Some (Obs.Json.Bool _) -> ()
   | _ -> fail "%s: escaped missing or not a bool" path);
  let stats =
    match Obs.Json.member "stats" j with
    | Some s -> s
    | None -> fail "%s: stats missing" path
  in
  List.iter
    (fun name ->
      let is_feedback =
        String.length name >= 9 && String.sub name 0 9 = "feedback_"
      in
      if is_feedback then
        match Option.bind (Obs.Json.member name stats) Obs.Json.to_int with
        | Some v when v >= 0 -> ()
        | _ -> fail "%s: stats.%s missing or negative" path name)
    (Volcano.Search_stats.metric_names "");
  Printf.printf "OK %s: %d nodes, %d corrections\n" path (List.length nodes)
    (List.length corrections)

(* Field [name] of [j], read by [conv] and accepted by [ok]; otherwise
   exit naming the file, the place ([at], e.g. "cell ... arm guided ")
   and the field. *)
let need ?(ok = fun _ -> true) path at conv name j =
  match Option.bind (Obs.Json.member name j) conv with
  | Some v when ok v -> v
  | _ -> fail "%s: %s%s missing or invalid" path at name

let to_bool = function Obs.Json.Bool b -> Some b | _ -> None

let to_obj = function Obs.Json.Obj fs -> Some fs | _ -> None

let nonempty l = l <> []

(* An anytime curve: one {budget, tasks, cost, complete} point per
   rung, budgets strictly ascending, tasks never running backwards, and
   a best-so-far cost that never disappears or worsens once found. *)
let validate_curve path at curve =
  let open Obs.Json in
  ignore
    (List.fold_left
       (fun (prev_budget, prev_tasks, prev_cost) p ->
         let budget = need path at to_int "budget" p in
         if budget <= prev_budget then fail "%s: %sbudgets do not ascend" path at;
         let tasks = need path at to_int "tasks" p in
         if tasks < prev_tasks then fail "%s: %stasks run backwards" path at;
         ignore (need path at to_bool "complete" p);
         let cost =
           match member "cost" p with
           | Some Null -> None
           | Some (Num c) -> Some c
           | _ -> fail "%s: %shas a rung without a numeric cost" path at
         in
         (match (prev_cost, cost) with
          | Some _, None -> fail "%s: %sbest-so-far disappeared" path at
          | Some pc, Some c when c > pc ->
            fail "%s: %sbest-so-far worsened along the ladder" path at
          | _ -> ());
         (budget, tasks, cost))
       (min_int, 0, None) curve)

(* A benchmark report in the one schema bench/main.ml writes: a
   non-empty bench name; mode smoke, default or full; cores >= 1; a
   non-empty gates object of booleans, every one true; a headlines
   object of numbers (null where a ratio is undefined); and a non-empty
   cells array. Each cell has a non-empty key of scalars, unique in the
   report, and a non-empty arms array of uniquely named arms, each with
   a counters object (numbers, booleans, null) and a timings object
   (non-negative numbers or null). Deeper checks apply wherever their
   shape appears: an arm's anytime curve (see [validate_curve]);
   goal_slots at most 4 times goal_entries; and in a cell keyed
   [reference: true], every arm complete with a final cost. *)
let validate_bench path =
  let open Obs.Json in
  let j = load path in
  ignore (need path "" to_str "bench" j ~ok:(( <> ) ""));
  ignore (need path "" to_str "mode" j ~ok:(fun m -> List.mem m [ "smoke"; "default"; "full" ]));
  ignore (need path "" to_int "cores" j ~ok:(fun c -> c >= 1));
  let gates = need path "" to_obj "gates" j ~ok:nonempty in
  List.iter
    (fun (g, v) -> if v <> Bool true then fail "%s: gate %s is not true" path g)
    gates;
  List.iter
    (fun (h, v) ->
      match v with Num _ | Null -> () | _ -> fail "%s: headline %s is not a number" path h)
    (need path "" to_obj "headlines" j);
  let cells = need path "" to_list "cells" j ~ok:nonempty in
  let keys = Hashtbl.create 16 and n_arms = ref 0 in
  List.iteri
    (fun i cell ->
      let key = need path (Printf.sprintf "cell %d " i) to_obj "key" cell ~ok:nonempty in
      List.iter
        (fun (k, v) ->
          match v with
          | Arr _ | Obj _ | Null -> fail "%s: cell %d key %s is not a scalar" path i k
          | _ -> ())
        key;
      let at = "cell " ^ to_string (Obj (List.sort compare key)) ^ " " in
      if Hashtbl.mem keys at then fail "%s: %srepeats" path at;
      Hashtbl.replace keys at ();
      let arms = need path at to_list "arms" cell ~ok:nonempty in
      let names = List.map (need path at to_str "arm" ~ok:(( <> ) "")) arms in
      if List.length (List.sort_uniq compare names) <> List.length names then
        fail "%s: %srepeats an arm" path at;
      List.iter2
        (fun name arm ->
          incr n_arms;
          let at = at ^ "arm " ^ name ^ " " in
          let counters = need path at to_obj "counters" arm in
          List.iter
            (fun (c, v) ->
              match v with
              | Num _ | Bool _ | Null -> ()
              | _ -> fail "%s: %scounter %s is not a number or flag" path at c)
            counters;
          List.iter
            (fun (t, v) ->
              match v with
              | Num x when x >= 0. -> ()
              | Null -> ()
              | _ -> fail "%s: %stiming %s is not a non-negative number" path at t)
            (need path at to_obj "timings" arm);
          if List.assoc_opt "reference" key = Some (Bool true) then begin
            if List.assoc_opt "complete" counters <> Some (Bool true) then
              fail "%s: %sis a reference arm but did not complete" path at;
            ignore (need path at to_float "final_cost" (Obj counters))
          end;
          let count c = Option.bind (List.assoc_opt c counters) to_int in
          (match (count "goal_slots", count "goal_entries") with
           | Some slots, Some entries when slots > 4 * entries ->
             fail "%s: %sallocates %d goal slots for %d entries (> 4x)" path at slots entries
           | _ -> ());
          if member "curve" arm <> None then
            validate_curve path at (need path at to_list "curve" arm ~ok:nonempty))
        names arms)
    cells;
  Printf.printf "OK %s: %d gates, %d cells, %d arms\n" path (List.length gates)
    (List.length cells) !n_arms

(* A search profile from [volcano-cli optimize --profile-out]: a
   positive total task count, track 0 present, a non-empty entries
   array whose rows each carry a known kind, a name, and non-negative
   counters — and the attribution-parity invariant: the per-entry task
   counts sum exactly to total_tasks. *)
let validate_profile path =
  let j = load path in
  let total =
    match Option.bind (Obs.Json.member "total_tasks" j) Obs.Json.to_int with
    | Some t when t >= 1 -> t
    | _ -> fail "%s: total_tasks missing or < 1" path
  in
  let tracks =
    match Option.bind (Obs.Json.member "tracks" j) Obs.Json.to_list with
    | Some [] -> fail "%s: tracks is empty" path
    | Some l -> List.map (fun t ->
        match Obs.Json.to_int t with
        | Some v -> v
        | None -> fail "%s: non-integer track" path) l
    | None -> fail "%s: tracks missing or not an array" path
  in
  if not (List.mem 0 tracks) then fail "%s: track 0 (sequential engine) missing" path;
  let entries =
    match Option.bind (Obs.Json.member "entries" j) Obs.Json.to_list with
    | Some [] -> fail "%s: entries is empty" path
    | Some l -> l
    | None -> fail "%s: entries missing or not an array" path
  in
  let task_sum = ref 0 in
  List.iteri
    (fun i e ->
      (match str_field "kind" e with
       | Some ("rule" | "enforcer" | "operator" | "engine") -> ()
       | _ -> fail "%s: entry %d has an unknown kind" path i);
      (match str_field "name" e with
       | Some n when n <> "" -> ()
       | _ -> fail "%s: entry %d has no name" path i);
      List.iter
        (fun f ->
          match Option.bind (Obs.Json.member f e) Obs.Json.to_int with
          | Some v when v >= 0 ->
            if f = "tasks" then task_sum := !task_sum + v
          | _ -> fail "%s: entry %d has a bad %s" path i f)
        [ "tasks"; "mexprs"; "plans_won"; "pruned"; "wasted" ];
      match num_field "time_ms" e with
      | Some t when t >= 0. -> ()
      | _ -> fail "%s: entry %d has a bad time_ms" path i)
    entries;
  if !task_sum <> total then
    fail "%s: attribution parity broken: entry tasks sum to %d, total_tasks is %d"
      path !task_sum total;
  Printf.printf "OK %s: %d entries, %d tasks attributed, %d tracks\n" path
    (List.length entries) total (List.length tracks)

(* A flight-recorder dump from [--flightrec-out] (or a post-mortem
   trigger): a non-empty reason, a positive capacity, consistent
   recorded/dropped/event counts, and events with known kinds,
   non-negative timestamps, and non-descending time order. The ring may
   be empty: a budget that runs out before the first task records
   nothing. *)
let validate_flightrec path =
  let j = load path in
  (match str_field "reason" j with
   | Some r when r <> "" -> ()
   | _ -> fail "%s: reason missing or empty" path);
  let capacity =
    match Option.bind (Obs.Json.member "capacity" j) Obs.Json.to_int with
    | Some c when c >= 1 -> c
    | _ -> fail "%s: capacity missing or < 1" path
  in
  let recorded =
    match Option.bind (Obs.Json.member "recorded" j) Obs.Json.to_int with
    | Some r when r >= 0 -> r
    | _ -> fail "%s: recorded missing or negative" path
  in
  let dropped =
    match Option.bind (Obs.Json.member "dropped" j) Obs.Json.to_int with
    | Some d when d >= 0 -> d
    | _ -> fail "%s: dropped missing or negative" path
  in
  let tracks =
    match Option.bind (Obs.Json.member "tracks" j) Obs.Json.to_list with
    | Some [] -> fail "%s: tracks is empty" path
    | Some l -> l
    | None -> fail "%s: tracks missing or not an array" path
  in
  let events =
    match Option.bind (Obs.Json.member "events" j) Obs.Json.to_list with
    | Some l -> l
    | None -> fail "%s: events missing or not an array" path
  in
  if List.length events > capacity * List.length tracks then
    fail "%s: %d events exceed capacity %d over %d tracks" path
      (List.length events) capacity (List.length tracks);
  if recorded <> List.length events + dropped then
    fail "%s: recorded (%d) <> surviving events (%d) + dropped (%d)" path recorded
      (List.length events) dropped;
  let prev_ns = ref (-1.) in
  List.iteri
    (fun i ev ->
      (match num_field "ns" ev with
       | Some ns when ns >= 0. ->
         if ns < !prev_ns then fail "%s: event %d out of time order" path i;
         prev_ns := ns
       | _ -> fail "%s: event %d has a bad ns" path i);
      (match Option.bind (Obs.Json.member "track" ev) Obs.Json.to_int with
       | Some t when t >= 0 -> ()
       | _ -> fail "%s: event %d has a bad track" path i);
      (match str_field "kind" ev with
       | Some
           ( "task_begin" | "task_end" | "publish" | "prune"
           | "incumbent" ) -> ()
       | _ -> fail "%s: event %d has an unknown kind" path i);
      List.iter
        (fun f ->
          if Option.bind (Obs.Json.member f ev) Obs.Json.to_int = None then
            fail "%s: event %d has no integer %s" path i f)
        [ "group"; "detail" ])
    events;
  Printf.printf "OK %s: %d events (%d recorded, %d dropped), %d tracks, reason %s\n"
    path (List.length events) recorded dropped (List.length tracks)
    (Option.value (str_field "reason" j) ~default:"")

let () =
  match Array.to_list Sys.argv with
  | _ :: "trace" :: [ path ] -> validate_trace path
  | _ :: "metrics" :: [ path ] -> validate_metrics path
  | _ :: "drift" :: [ path ] -> validate_drift path
  | _ :: "bench" :: (_ :: _ as paths) -> List.iter validate_bench paths
  | _ :: "profile" :: [ path ] -> validate_profile path
  | _ :: "flightrec" :: [ path ] -> validate_flightrec path
  | _ ->
    prerr_endline
      "usage: validate_obs {trace FILE | metrics FILE | drift FILE | bench FILE... | \
       profile FILE | flightrec FILE}";
    exit 2
