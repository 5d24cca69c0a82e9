(* Tests of multi-query optimization: per-subtree fingerprints, the
   sharing-off bit-identity guarantee, Volcano-SH / Volcano-RU
   improvement and no-regression, counters, and the overlapping-batch
   workload generator. *)

open Relalg
module Optimizer = Relmodel.Optimizer

let overlapping ?(count = 5) ?(core_relations = 2) ?(n_relations = 5) ?(seed = 11)
    ~sharing () =
  Workload.generate_overlapping
    (Workload.spec ~n_relations ~seed ())
    ~count ~core_relations ~sharing ()

let pairs_of (b : Workload.batch) = List.map (fun q -> (q, Phys_prop.any)) b.queries

let cost17 c = Printf.sprintf "%.17g" (Cost.total c)

(* ---------- per-subtree fingerprints ---------- *)

(* Equal subtree keys iff equal canonical forms — over every pair of
   subtrees drawn from two independently generated workload queries
   (commuted joins, flipped predicates, and genuinely distinct subtrees
   all arise). *)
let test_subtree_keys_iff_canonical =
  let gen =
    QCheck.Gen.(
      triple
        (oneofl [ Workload.Chain; Workload.Star; Workload.Random_acyclic ])
        (int_range 2 5) (int_range 0 1_000))
  in
  Helpers.qcheck_case ~count:40 "subtree keys iff canonical forms equal"
    (QCheck.make gen) (fun (shape, n, seed) ->
      let q1 = (Workload.generate (Workload.spec ~shape ~n_relations:n ~seed ())).logical in
      let q2 =
        (Workload.generate (Workload.spec ~shape ~n_relations:n ~seed:(seed + 1) ()))
          .logical
      in
      let subs = Plansrv.Fingerprint.subtrees q1 @ Plansrv.Fingerprint.subtrees q2 in
      List.for_all
        (fun (k1, e1) ->
          List.for_all
            (fun (k2, e2) -> String.equal k1 k2 = Logical.equal e1 e2)
            subs)
        subs)

let test_subtrees_detect_embedded_core () =
  (* The whole point: a core embedded under different private joins
     fingerprints identically to the standalone core. *)
  let b = overlapping ~sharing:1.0 () in
  let core = Option.get b.core in
  let core_key = Plansrv.Fingerprint.expr_key core in
  List.iter
    (fun q ->
      let keys = List.map fst (Plansrv.Fingerprint.subtrees q) in
      Alcotest.(check bool) "core key found in query subtrees" true
        (List.mem core_key keys))
    b.queries

let test_subtrees_postorder_root_last () =
  let q = (overlapping ~sharing:0.0 ()).queries |> List.hd in
  let subs = Plansrv.Fingerprint.subtrees q in
  let root_key = Plansrv.Fingerprint.expr_key q in
  match List.rev subs with
  | (last_key, _) :: _ ->
    Alcotest.(check string) "root subtree is last (post-order)" root_key last_key
  | [] -> Alcotest.fail "no subtrees"

(* ---------- sharing off: bit-identical to independent runs ---------- *)

let test_off_bit_identical_to_independent () =
  let b = overlapping ~count:4 ~sharing:0.5 () in
  let req = Optimizer.request b.batch_catalog in
  let report = Mqo.optimize_batch ~strategy:Mqo.Off req (pairs_of b) in
  Alcotest.(check int) "no shared groups reported" 0 report.shared_groups;
  Alcotest.(check int) "no materializations" 0 report.materialize_chosen;
  List.iter2
    (fun q (qr : Mqo.query_result) ->
      let ind = Optimizer.optimize req q ~required:Phys_prop.any in
      match ind.plan, qr.plan with
      | Some a, Some b ->
        Alcotest.(check string) "identical plan" (Optimizer.explain a)
          (Optimizer.explain b);
        Alcotest.(check string) "bit-identical cost" (cost17 a.cost) (cost17 b.cost)
      | _, _ -> Alcotest.fail "missing plan")
    b.queries report.results;
  let sum =
    List.fold_left
      (fun acc (qr : Mqo.query_result) -> acc +. Cost.total qr.final_cost)
      0. report.results
  in
  Alcotest.(check string) "batch total = sum of independent costs"
    (Printf.sprintf "%.17g" report.independent_total)
    (Printf.sprintf "%.17g" sum);
  Alcotest.(check string) "batch total unchanged"
    (Printf.sprintf "%.17g" report.independent_total)
    (Printf.sprintf "%.17g" report.batch_total)

(* ---------- Volcano-SH ---------- *)

let test_sh_improves_on_shared_batch () =
  let b = overlapping ~count:6 ~n_relations:6 ~core_relations:3 ~sharing:0.7 () in
  let req = Optimizer.request b.batch_catalog in
  let r = Mqo.optimize_batch ~strategy:Mqo.Volcano_sh req (pairs_of b) in
  Alcotest.(check bool) "shared groups detected" true (r.shared_groups > 0);
  Alcotest.(check bool) "materialization chosen" true (r.materialize_chosen > 0);
  Alcotest.(check bool) "reuse hits recorded" true (r.reuse_hits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "batch %.6f strictly below independent %.6f" r.batch_total
       r.independent_total)
    true
    (r.batch_total < r.independent_total);
  (* The chosen plans really carry the claimed costs. *)
  let replayed =
    List.fold_left
      (fun acc (qr : Mqo.query_result) ->
        match qr.plan with
        | Some p -> acc +. Cost.total p.Optimizer.cost
        | None -> acc)
      0. r.results
  in
  Alcotest.(check string) "batch total = sum of final plan costs"
    (Printf.sprintf "%.17g" r.batch_total)
    (Printf.sprintf "%.17g" replayed);
  (* Consumers scan the materialized intermediates they reuse. *)
  let reusers =
    List.filter (fun (qr : Mqo.query_result) -> qr.reused <> []) r.results
  in
  Alcotest.(check bool) "some query reads a materialized result" true (reusers <> []);
  List.iter
    (fun (s : Mqo.shared) ->
      if s.chosen then begin
        Alcotest.(check bool) "chosen sharing has consumers" true (s.consumers <> []);
        Alcotest.(check bool) "materialized table registered" true
          (Catalog.mem b.batch_catalog s.mat_name
           && (Catalog.find b.batch_catalog s.mat_name).materialized)
      end)
    r.shared

let test_sh_never_regresses () =
  (* Across seeds and sharing levels (including zero), the SH post-pass
     must never raise the batch cost above independent optimization. *)
  List.iter
    (fun (seed, sharing) ->
      let b = overlapping ~count:4 ~seed ~sharing () in
      let req = Optimizer.request b.batch_catalog in
      let r = Mqo.optimize_batch ~strategy:Mqo.Volcano_sh req (pairs_of b) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d sharing %.1f: %.6f <= %.6f" seed sharing r.batch_total
           r.independent_total)
        true
        (r.batch_total <= r.independent_total))
    [ (1, 0.0); (2, 0.3); (3, 0.7); (4, 1.0); (5, 0.5) ]

(* ---------- Volcano-RU ---------- *)

let test_ru_improves_on_shared_batch () =
  let b = overlapping ~count:6 ~n_relations:6 ~core_relations:3 ~sharing:0.7 () in
  let req = Optimizer.request b.batch_catalog in
  let r = Mqo.optimize_batch ~strategy:Mqo.Volcano_ru req (pairs_of b) in
  Alcotest.(check bool) "shared groups detected" true (r.shared_groups > 0);
  Alcotest.(check bool) "materialization chosen" true (r.materialize_chosen > 0);
  Alcotest.(check bool) "reuse hits recorded" true (r.reuse_hits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "batch %.6f strictly below independent %.6f" r.batch_total
       r.independent_total)
    true
    (r.batch_total < r.independent_total);
  (* Every chosen materialization pays for itself: summed consumer gains
     exceed compute + write. *)
  List.iter
    (fun (s : Mqo.shared) ->
      if s.chosen then begin
        Alcotest.(check bool) "chosen sharing has consumers" true (s.consumers <> []);
        Alcotest.(check bool) "producer plan recorded" true (s.producer_plan <> None)
      end)
    r.shared;
  (* The first query arrives before any candidate exists, so it keeps
     its independent plan. *)
  (match r.results with
   | first :: _ ->
     Alcotest.(check string) "first query keeps its independent cost"
       (cost17 first.independent_cost) (cost17 first.final_cost)
   | [] -> Alcotest.fail "no results")

let test_ru_never_regresses () =
  List.iter
    (fun (seed, sharing) ->
      let b = overlapping ~count:4 ~seed ~sharing () in
      let req = Optimizer.request b.batch_catalog in
      let r = Mqo.optimize_batch ~strategy:Mqo.Volcano_ru req (pairs_of b) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d sharing %.1f: %.6f <= %.6f" seed sharing r.batch_total
           r.independent_total)
        true
        (r.batch_total <= r.independent_total);
      (* Rejected materializations are cleaned out of the catalog. *)
      List.iter
        (fun (s : Mqo.shared) ->
          if not s.chosen then
            Alcotest.(check bool)
              (Printf.sprintf "rejected %s removed from catalog" s.mat_name)
              false
              (s.mat_name <> "" && Catalog.mem b.batch_catalog s.mat_name))
        r.shared)
    [ (1, 0.0); (2, 0.3); (3, 0.7); (4, 1.0); (5, 0.5) ]

(* ---------- counters ---------- *)

(* The value of gauge [name] in [reg]'s JSON export. *)
let gauge reg name =
  match Obs.Json.member "gauges" (Obs.Metrics.to_json reg) with
  | Some g -> Option.bind (Obs.Json.member name g) Obs.Json.to_int
  | None -> None

let check_gauges msg reg (r : Mqo.report) =
  List.iter
    (fun (name, v) ->
      Alcotest.(check (option int)) (msg ^ ": " ^ name) (Some v) (gauge reg name))
    [
      ("volcano_search_mqo_shared_groups", r.shared_groups);
      ("volcano_search_mqo_materialize_chosen", r.materialize_chosen);
      ("volcano_search_mqo_reuse_hits", r.reuse_hits);
    ]

let test_report_counters_as_gauges () =
  let b = overlapping ~count:6 ~n_relations:6 ~core_relations:3 ~sharing:0.7 () in
  let req = Optimizer.request b.batch_catalog in
  List.iter
    (fun strategy ->
      let r = Mqo.optimize_batch ~strategy req (pairs_of b) in
      let reg = Obs.Metrics.create () in
      Mqo.register ~report:r reg;
      check_gauges (Mqo.strategy_name strategy) reg r)
    [ Mqo.Off; Mqo.Volcano_sh; Mqo.Volcano_ru ]

(* The sharing counters are MQO's, not the search's: they keep their
   exported names and read 0 without a batch. *)
let test_counters_owned_by_mqo () =
  let names = Mqo.metric_names "volcano_search_" in
  Alcotest.(check (list string)) "exported names"
    [
      "volcano_search_mqo_shared_groups";
      "volcano_search_mqo_materialize_chosen";
      "volcano_search_mqo_reuse_hits";
    ]
    names;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is not a search counter") false
        (List.mem name (Volcano.Search_stats.metric_names "volcano_search_")))
    names;
  let reg = Obs.Metrics.create () in
  Mqo.register reg;
  List.iter
    (fun name -> Alcotest.(check (option int)) (name ^ " without a batch") (Some 0) (gauge reg name))
    names

(* ---------- plan service batch entry point ---------- *)

let test_serve_batch_off_matches_cache () =
  let b = overlapping ~count:4 ~sharing:0.5 () in
  let request = Optimizer.request b.batch_catalog in
  let srv = Plansrv.create (Plansrv.config ~capacity:64 request) in
  let w = Plansrv.worker srv in
  let report, responses = Mqo.serve_batch ~strategy:Mqo.Off srv w (pairs_of b) in
  Alcotest.(check int) "one response per query" (List.length b.queries)
    (List.length responses);
  List.iter2
    (fun (qr : Mqo.query_result) (resp : Plansrv.response) ->
      match qr.plan, resp.Plansrv.plan with
      | Some a, Some b ->
        Alcotest.(check string) "batch plan = served plan" (Optimizer.explain b)
          (Optimizer.explain a)
      | _, _ -> Alcotest.fail "missing plan")
    report.results responses;
  (* A second pass is answered warm. *)
  let _, responses2 = Mqo.serve_batch ~strategy:Mqo.Off srv w (pairs_of b) in
  List.iter
    (fun (resp : Plansrv.response) ->
      match resp.Plansrv.outcome with
      | Plansrv.Hit -> ()
      | _ -> Alcotest.fail "expected warm hit on second batch")
    responses2

(* A batch served through the plan service exports its sharing counters
   in the service's registry, next to the search's, as [volcano-cli
   batch --metrics-out] writes them. *)
let test_serve_batch_counters_exported () =
  let b = overlapping ~count:6 ~n_relations:6 ~core_relations:3 ~sharing:0.7 () in
  let request = Optimizer.request b.batch_catalog in
  let srv = Plansrv.create (Plansrv.config ~capacity:64 request) in
  let w = Plansrv.worker srv in
  let report, _ = Mqo.serve_batch ~strategy:Mqo.Volcano_sh srv w (pairs_of b) in
  Alcotest.(check bool) "strategy found sharing" true (report.shared_groups > 0);
  let reg = Plansrv.registry srv in
  Mqo.register ~report reg;
  check_gauges "service registry" reg report;
  Alcotest.(check (option int)) "search counters beside them"
    (Some (Plansrv.metrics srv).Plansrv.search.Volcano.Search_stats.tasks)
    (gauge reg "volcano_search_tasks_total")

(* Volcano-RU's re-optimizations are search the service did: the report
   carries their effort and the service's exported task counter
   includes it, above what the same batch costs with sharing off. *)
let test_serve_batch_ru_effort_counted () =
  let serve strategy =
    let b = overlapping ~count:6 ~n_relations:6 ~core_relations:3 ~sharing:0.7 () in
    let request = Optimizer.request b.batch_catalog in
    let srv = Plansrv.create (Plansrv.config ~capacity:64 request) in
    let report, _ = Mqo.serve_batch ~strategy srv (Plansrv.worker srv) (pairs_of b) in
    (report, Option.get (gauge (Plansrv.registry srv) "volcano_search_tasks_total"))
  in
  let off, off_tasks = serve Mqo.Off in
  let ru, ru_tasks = serve Mqo.Volcano_ru in
  Alcotest.(check int) "off re-optimizes nothing" 0 off.stats.Volcano.Search_stats.tasks;
  Alcotest.(check bool) "ru chose a materialization" true (ru.materialize_chosen > 0);
  let ru_own = ru.stats.Volcano.Search_stats.tasks in
  Alcotest.(check bool)
    (Printf.sprintf "ru reports its effort (%d tasks)" ru_own)
    true (ru_own > 0);
  Alcotest.(check int) "service counts the independent pass and ru's effort"
    (off_tasks + ru_own) ru_tasks

(* ---------- overlapping-batch generator ---------- *)

let test_overlapping_validation () =
  let spec = Workload.spec ~n_relations:4 ~seed:1 () in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "count 0 rejected" true (raises (fun () ->
      Workload.generate_overlapping spec ~count:0 ~sharing:0.5 ()));
  Alcotest.(check bool) "sharing -0.1 rejected" true (raises (fun () ->
      Workload.generate_overlapping spec ~count:3 ~sharing:(-0.1) ()));
  Alcotest.(check bool) "sharing 1.5 rejected" true (raises (fun () ->
      Workload.generate_overlapping spec ~count:3 ~sharing:1.5 ()));
  Alcotest.(check bool) "core_relations >= n rejected" true (raises (fun () ->
      Workload.generate_overlapping spec ~count:3 ~core_relations:4 ~sharing:0.5 ()))

let test_overlapping_sharing_levels () =
  let b0 = overlapping ~count:6 ~sharing:0.0 () in
  Alcotest.(check bool) "sharing 0: no core" true (b0.core = None);
  let b1 = overlapping ~count:6 ~sharing:1.0 () in
  let core_key = Plansrv.Fingerprint.expr_key (Option.get b1.core) in
  let embeds q =
    List.exists (fun (k, _) -> String.equal k core_key) (Plansrv.Fingerprint.subtrees q)
  in
  Alcotest.(check int) "sharing 1: all queries embed the core" 6
    (List.length (List.filter embeds b1.queries));
  let bh = overlapping ~count:6 ~sharing:0.5 () in
  let core_key = Plansrv.Fingerprint.expr_key (Option.get bh.core) in
  let embeds q =
    List.exists (fun (k, _) -> String.equal k core_key) (Plansrv.Fingerprint.subtrees q)
  in
  Alcotest.(check int) "sharing 0.5: half the queries embed the core" 3
    (List.length (List.filter embeds bh.queries));
  (* One shared catalog; every query optimizable against it. *)
  let req = Optimizer.request bh.batch_catalog in
  List.iter
    (fun q ->
      let r = Optimizer.optimize req q ~required:Phys_prop.any in
      Alcotest.(check bool) "query optimizable" true (r.plan <> None))
    bh.queries

let test_overlapping_reproducible () =
  let b1 = overlapping ~count:5 ~sharing:0.6 () in
  let b2 = overlapping ~count:5 ~sharing:0.6 () in
  List.iter2
    (fun q1 q2 ->
      Alcotest.(check bool) "same queries across runs" true (Logical.equal q1 q2))
    b1.queries b2.queries

let suite =
  [
    test_subtree_keys_iff_canonical;
    Alcotest.test_case "core detected in embeddings" `Quick
      test_subtrees_detect_embedded_core;
    Alcotest.test_case "subtrees post-order" `Quick test_subtrees_postorder_root_last;
    Alcotest.test_case "off bit-identical to independent" `Quick
      test_off_bit_identical_to_independent;
    Alcotest.test_case "volcano-sh improves shared batch" `Quick
      test_sh_improves_on_shared_batch;
    Alcotest.test_case "volcano-sh never regresses" `Quick test_sh_never_regresses;
    Alcotest.test_case "volcano-ru improves shared batch" `Quick
      test_ru_improves_on_shared_batch;
    Alcotest.test_case "volcano-ru never regresses" `Quick test_ru_never_regresses;
    Alcotest.test_case "report counters as gauges" `Quick test_report_counters_as_gauges;
    Alcotest.test_case "counters owned by Mqo" `Quick test_counters_owned_by_mqo;
    Alcotest.test_case "serve_batch off = cached serving" `Quick
      test_serve_batch_off_matches_cache;
    Alcotest.test_case "serve_batch counters exported" `Quick
      test_serve_batch_counters_exported;
    Alcotest.test_case "serve_batch ru effort counted" `Quick
      test_serve_batch_ru_effort_counted;
    Alcotest.test_case "generator validation" `Quick test_overlapping_validation;
    Alcotest.test_case "generator sharing levels" `Quick test_overlapping_sharing_levels;
    Alcotest.test_case "generator reproducible" `Quick test_overlapping_reproducible;
  ]
