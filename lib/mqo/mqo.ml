open Relalg
module Optimizer = Relmodel.Optimizer

type strategy =
  | Off
  | Volcano_sh
  | Volcano_ru

let strategy_name = function
  | Off -> "off"
  | Volcano_sh -> "volcano-sh"
  | Volcano_ru -> "volcano-ru"

let strategy_of_string = function
  | "off" -> Some Off
  | "sh" | "volcano-sh" -> Some Volcano_sh
  | "ru" | "volcano-ru" -> Some Volcano_ru
  | _ -> None

type shared = {
  key : string;
  mat_name : string;
  relations : string list;
  producer : int option;
  producer_plan : Optimizer.plan_node option;
  consumers : int list;
  compute : Cost.t;
  write : Cost.t;
  read : Cost.t;
  chosen : bool;
}

type query_result = {
  plan : Optimizer.plan_node option;
  independent_cost : Cost.t;
  final_cost : Cost.t;
  reused : string list;
}

type report = {
  strategy : strategy;
  results : query_result list;
  shared : shared list;
  independent_total : float;
  batch_total : float;
  shared_groups : int;
  materialize_chosen : int;
  reuse_hits : int;
  stats : Volcano.Search_stats.t;
}

let scalar = Cost.total

let fresh_mat_name catalog =
  let rec go i =
    let name = Printf.sprintf "__mqo%d" i in
    if Catalog.mem catalog name then go (i + 1) else name
  in
  go 0

(* The logical subexpression a physical subplan computes. Enforcers
   (and [Materialize]) are logically transparent — they map to their
   input's expression; every algorithm maps to the operator(s) it
   implements, mirroring {!Relmodel.Plan_cost.derive_alg}. *)
let rec logical_of_node (n : Optimizer.plan_node) : Logical.expr option =
  let child i =
    match List.nth_opt n.children i with
    | Some c -> logical_of_node c
    | None -> None
  in
  let map1 f = Option.map f (child 0) in
  let map2 f =
    match child 0, child 1 with
    | Some l, Some r -> Some (f l r)
    | _, _ -> None
  in
  match n.alg with
  | Physical.Table_scan t | Physical.Scan_materialized t -> Some (Logical.get t)
  | Physical.Index_scan (t, _, pred) -> Some (Logical.select pred (Logical.get t))
  | Physical.Filter p -> map1 (Logical.select p)
  | Physical.Project_cols cols -> map1 (Logical.project cols)
  | Physical.Nested_loop_join p | Physical.Merge_join (_, p) | Physical.Hash_join (_, p)
    ->
    map2 (Logical.join p)
  | Physical.Hash_join_project (_, p, cols) ->
    map2 (fun l r -> Logical.project cols (Logical.join p l r))
  | Physical.Sort _ | Physical.Hash_dedup | Physical.Sort_dedup _ | Physical.Repartition _
  | Physical.Gather | Physical.Merge_gather _ | Physical.Materialize _ -> child 0
  | Physical.Merge_union | Physical.Hash_union -> map2 Logical.union
  | Physical.Merge_intersect | Physical.Hash_intersect -> map2 Logical.intersect
  | Physical.Merge_difference | Physical.Hash_difference -> map2 Logical.difference
  | Physical.Stream_aggregate (keys, aggs) | Physical.Hash_aggregate (keys, aggs) ->
    map1 (Logical.group_by keys aggs)

let rec mem_node needle (n : Optimizer.plan_node) =
  n == needle || List.exists (mem_node needle) n.children

let rec scan_names acc (n : Optimizer.plan_node) =
  let acc =
    match n.alg with
    | Physical.Scan_materialized t -> if List.mem t acc then acc else t :: acc
    | _ -> acc
  in
  List.fold_left scan_names acc n.children

let reused_of plan =
  match plan with
  | None -> []
  | Some p -> List.rev (scan_names [] p)

(* ------------------------------------------------------------------ *)
(* Volcano-SH: cost-based post-pass over independently-optimal plans   *)
(* ------------------------------------------------------------------ *)

type occurrence = {
  o_query : int;
  o_node : Optimizer.plan_node;
}

(* Splice a plan: replace occurrence nodes (by physical identity) with
   [Scan_materialized] leaves, wrap the producer node in [Materialize],
   and repair the cumulative costs along every rebuilt path. Untouched
   subtrees are returned as-is, so later candidates can still locate
   their occurrence nodes by identity. *)
let splice ~replacements ~producer_site plan =
  let rec go (n : Optimizer.plan_node) : Optimizer.plan_node =
    match List.assq_opt n replacements with
    | Some leaf -> leaf
    | None ->
      let wrap (n : Optimizer.plan_node) =
        match producer_site with
        | Some (site, mat_name, write) when site == n ->
          {
            Optimizer.alg = Physical.Materialize mat_name;
            children = [ n ];
            props = n.props;
            cost = Cost.add n.cost write;
          }
        | _ -> n
      in
      let children' = List.map go n.children in
      if List.for_all2 ( == ) children' n.children then wrap n
      else begin
        let old_sum =
          List.fold_left (fun acc (c : Optimizer.plan_node) -> Cost.add acc c.cost)
            Cost.zero n.children
        in
        let new_sum =
          List.fold_left (fun acc (c : Optimizer.plan_node) -> Cost.add acc c.cost)
            Cost.zero children'
        in
        let local = Cost.sub n.cost old_sum in
        wrap { n with children = children'; cost = Cost.add local new_sum }
      end
  in
  go plan

let sh_pass ~catalog ~params (plans : Optimizer.plan_node option array) =
  (* Every non-enforcer subplan computing a multi-relation (non-leaf)
     logical expression, keyed by its canonical subtree fingerprint. *)
  let occurrences : (string, occurrence list ref) Hashtbl.t = Hashtbl.create 64 in
  let key_order = ref [] in
  let record qi (n : Optimizer.plan_node) =
    if
      (not (Physical.is_enforcer n.alg))
      && n.props.Phys_prop.partitioning = Phys_prop.Singleton
    then
      match logical_of_node n with
      | Some l when Logical.size l > 1 -> begin
        let key = Plansrv.Fingerprint.expr_key l in
        match Hashtbl.find_opt occurrences key with
        | Some occs -> occs := { o_query = qi; o_node = n } :: !occs
        | None ->
          Hashtbl.add occurrences key (ref [ { o_query = qi; o_node = n } ]);
          key_order := key :: !key_order
      end
      | _ -> ()
  in
  Array.iteri
    (fun qi plan ->
      match plan with
      | None -> ()
      | Some p ->
        let rec walk n =
          record qi n;
          List.iter walk n.Optimizer.children
        in
        walk p)
    plans;
  let current = Array.copy plans in
  let total () =
    Array.fold_left
      (fun acc plan ->
        match plan with
        | None -> acc
        | Some (p : Optimizer.plan_node) -> acc +. scalar p.cost)
      0. current
  in
  (* Shared candidates: keys spanning at least two queries. *)
  let candidates =
    List.rev !key_order
    |> List.filter_map (fun key ->
           let occs = List.rev !(Hashtbl.find occurrences key) in
           let queries = List.sort_uniq compare (List.map (fun o -> o.o_query) occs) in
           if List.length queries >= 2 then Some (key, occs) else None)
  in
  let shared_groups = List.length candidates in
  (* Estimated savings order the greedy pass; acceptance itself re-checks
     the spliced plans for strict improvement. *)
  let estimate occs =
    List.fold_left (fun acc o -> acc +. scalar o.o_node.Optimizer.cost) 0. occs
  in
  let ordered =
    List.stable_sort (fun (_, a) (_, b) -> compare (estimate b) (estimate a)) candidates
  in
  let shared = ref [] in
  let reuse_hits = ref 0 in
  let chosen_count = ref 0 in
  List.iter
    (fun (key, occs) ->
      (* Occurrences still present (by identity) in the current plans. *)
      let occs =
        List.filter
          (fun o ->
            match current.(o.o_query) with
            | Some p -> mem_node o.o_node p
            | None -> false)
          occs
      in
      if List.length occs >= 2 then begin
        (* Producer: the occurrence delivering the strongest order, so
           the stored result covers every consumer's delivered
           properties. *)
        let ordered_occs =
          List.stable_sort
            (fun a b ->
              compare
                (List.length b.o_node.Optimizer.props.Phys_prop.order)
                (List.length a.o_node.Optimizer.props.Phys_prop.order))
            occs
        in
        let producer = List.hd ordered_occs in
        let stored_order = producer.o_node.Optimizer.props.Phys_prop.order in
        let scan_props =
          {
            Phys_prop.order = stored_order;
            distinct = false;
            partitioning = Phys_prop.Singleton;
          }
        in
        let props_l =
          Relmodel.Plan_cost.props catalog (Optimizer.to_physical producer.o_node)
        in
        let mat_name = fresh_mat_name catalog in
        let read =
          Cost_model.cost params (Physical.Scan_materialized mat_name) ~inputs:[]
            ~output:props_l
        in
        let write =
          Cost_model.cost params (Physical.Materialize mat_name) ~inputs:[ props_l ]
            ~output:props_l
        in
        let consumers =
          List.filter
            (fun o ->
              (not (o.o_node == producer.o_node))
              && Phys_prop.covers ~provided:scan_props ~required:o.o_node.Optimizer.props
              && scalar o.o_node.Optimizer.cost > scalar read)
            ordered_occs
        in
        if consumers <> [] then begin
          let before = total () in
          let leaf =
            {
              Optimizer.alg = Physical.Scan_materialized mat_name;
              children = [];
              props = scan_props;
              cost = read;
            }
          in
          let next = Array.copy current in
          let affected = List.sort_uniq compare (List.map (fun o -> o.o_query) (producer :: consumers)) in
          List.iter
            (fun qi ->
              let replacements =
                List.filter_map
                  (fun o -> if o.o_query = qi then Some (o.o_node, leaf) else None)
                  consumers
              in
              let producer_site =
                if producer.o_query = qi then Some (producer.o_node, mat_name, write)
                else None
              in
              next.(qi) <-
                Option.map (splice ~replacements ~producer_site) current.(qi))
            affected;
          let after =
            Array.fold_left
              (fun acc plan ->
                match plan with
                | None -> acc
                | Some (p : Optimizer.plan_node) -> acc +. scalar p.cost)
              0. next
          in
          let accept = after < before in
          if accept then begin
            Array.blit next 0 current 0 (Array.length next);
            ignore
              (Catalog.add_materialized catalog ~name:mat_name ~props:props_l
                 ~stored_order ());
            reuse_hits := !reuse_hits + List.length consumers;
            incr chosen_count
          end;
          shared :=
            {
              key;
              mat_name = (if accept then mat_name else "");
              relations = props_l.Logical_props.relations;
              producer = Some producer.o_query;
              producer_plan = None;
              consumers = List.sort_uniq compare (List.map (fun o -> o.o_query) consumers);
              compute = producer.o_node.Optimizer.cost;
              write;
              read;
              chosen = accept;
            }
            :: !shared
        end
      end)
    ordered;
  (current, List.rev !shared, shared_groups, !chosen_count, !reuse_hits)

(* ------------------------------------------------------------------ *)
(* Volcano-RU: reuse-aware re-optimization in arrival order            *)
(* ------------------------------------------------------------------ *)

type mat = {
  m_name : string;
  m_compute : Cost.t;
  m_write : Cost.t;
  m_read : Cost.t;
  m_relations : string list;
  m_plan : Optimizer.plan_node;
}

type candidate = {
  c_expr : Logical.expr;  (** canonical subexpression *)
  mutable c_mat : mat option;  (** materialized lazily on first match *)
}

(* Replace every subtree whose canonical key is [key] by a scan of the
   materialized intermediate; returns the rewritten expression and how
   many sites were replaced. *)
let rewrite_expr ~key ~mat e =
  let count = ref 0 in
  let rec go e =
    if String.equal (Plansrv.Fingerprint.expr_key e) key then begin
      incr count;
      Logical.get mat
    end
    else Logical.mk e.Logical.op (List.map go e.Logical.inputs)
  in
  let e' = go e in
  (e', !count)

type tentative = {
  t_query : int;
  t_gain : float;  (** independent scalar cost minus rewritten scalar cost *)
  t_result : Optimizer.result;
  t_sites : int;  (** consumer sites rewritten in this query *)
}

let ensure_mat ~catalog ~params ~session cand =
  match cand.c_mat with
  | Some m -> Some m
  | None -> begin
    match
      (Optimizer.optimize_in session cand.c_expr ~required:Phys_prop.any).Optimizer.plan
    with
    | None -> None
    | Some pl ->
      let props_l = Relmodel.Plan_cost.props catalog (Optimizer.to_physical pl) in
      let name = fresh_mat_name catalog in
      let tbl =
        Catalog.add_materialized catalog ~name ~props:props_l
          ~stored_order:pl.Optimizer.props.Phys_prop.order ()
      in
      let read =
        Cost_model.cost params (Physical.Scan_materialized name) ~inputs:[]
          ~output:(Catalog.base_props tbl)
      in
      let write =
        Cost_model.cost params (Physical.Materialize name) ~inputs:[ props_l ]
          ~output:props_l
      in
      let m =
        {
          m_name = name;
          m_compute = pl.Optimizer.cost;
          m_write = write;
          m_read = read;
          m_relations = props_l.Logical_props.relations;
          m_plan = pl;
        }
      in
      cand.c_mat <- Some m;
      Some m
  end

let ru_pass ~catalog ~params ~session (queries : (Logical.expr * Phys_prop.t) array)
    (inds : Optimizer.result array) =
  let n = Array.length queries in
  let candidates : (string, candidate) Hashtbl.t = Hashtbl.create 64 in
  let matched : (string, tentative list ref) Hashtbl.t = Hashtbl.create 16 in
  let matched_order = ref [] in
  let finals = Array.map (fun (r : Optimizer.result) -> (r, [])) inds in
  for i = 0 to n - 1 do
    let q, required = queries.(i) in
    let subs = Plansrv.Fingerprint.subtrees q in
    (match inds.(i).Optimizer.plan with
     | None -> ()
     | Some ind_plan ->
       let ind_cost = scalar ind_plan.Optimizer.cost in
       let canon_q =
         match List.rev subs with
         | (_, root) :: _ -> root
         | [] -> q
       in
       (* Candidate keys from earlier queries present in this one. *)
       let matches =
         subs
         |> List.filter (fun (_, sub) -> Logical.size sub > 1)
         |> List.filter_map (fun (key, _) ->
                Option.map (fun c -> (key, c)) (Hashtbl.find_opt candidates key))
         |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)
       in
       (* Evaluate each matching candidate separately and keep the best
          strictly-improving one, so the end-of-batch accounting can
          attribute each query's gain to exactly one materialization. *)
       let best =
         List.fold_left
           (fun best (key, cand) ->
             match ensure_mat ~catalog ~params ~session cand with
             | None -> best
             | Some m -> begin
               let rewritten, sites = rewrite_expr ~key ~mat:m.m_name canon_q in
               if sites = 0 then best
               else begin
                 let r = Optimizer.optimize_in session rewritten ~required in
                 match r.Optimizer.plan with
                 | None -> best
                 | Some rw_plan ->
                   let gain = ind_cost -. scalar rw_plan.Optimizer.cost in
                   if
                     gain > 0.
                     &&
                     match best with
                     | None -> true
                     | Some (_, b) -> gain > b.t_gain
                   then
                     Some
                       (key, { t_query = i; t_gain = gain; t_result = r; t_sites = sites })
                   else best
               end
             end)
           None matches
       in
       (match best with
        | None -> ()
        | Some (key, t) ->
          (match Hashtbl.find_opt matched key with
           | Some l -> l := t :: !l
           | None ->
             Hashtbl.add matched key (ref [ t ]);
             matched_order := key :: !matched_order)));
    (* Register this query's own subexpressions for later arrivals —
       from the original form, whether or not a rewrite was accepted. *)
    List.iter
      (fun (key, sub) ->
        if Logical.size sub > 1 && not (Hashtbl.mem candidates key) then
          Hashtbl.add candidates key { c_expr = sub; c_mat = None })
      subs
  done;
  (* End-of-batch decision: keep a materialization only if the summed
     consumer gains exceed its compute + write cost. *)
  let shared = ref [] in
  let chosen_count = ref 0 in
  let reuse_hits = ref 0 in
  let net_total = ref 0. in
  List.iter
    (fun key ->
      let tentatives = List.rev !(Hashtbl.find matched key) in
      let cand = Hashtbl.find candidates key in
      match cand.c_mat with
      | None -> ()
      | Some m ->
        let gains = List.fold_left (fun acc t -> acc +. t.t_gain) 0. tentatives in
        let overhead = scalar m.m_compute +. scalar m.m_write in
        let chosen = gains > overhead in
        if chosen then begin
          incr chosen_count;
          net_total := !net_total +. (gains -. overhead);
          List.iter
            (fun t ->
              reuse_hits := !reuse_hits + t.t_sites;
              finals.(t.t_query) <- (t.t_result, [ m.m_name ]))
            tentatives
        end;
        shared :=
          {
            key;
            mat_name = m.m_name;
            relations = m.m_relations;
            producer = None;
            producer_plan = (if chosen then Some m.m_plan else None);
            consumers = List.map (fun t -> t.t_query) tentatives;
            compute = m.m_compute;
            write = m.m_write;
            read = m.m_read;
            chosen;
          }
          :: !shared)
    (List.rev !matched_order);
  (* Drop the intermediates that did not pay off. *)
  Hashtbl.iter
    (fun key cand ->
      match cand.c_mat with
      | Some m ->
        let kept =
          match Hashtbl.find_opt matched key with
          | Some ts -> List.exists (fun t -> fst finals.(t.t_query) != inds.(t.t_query)) !ts
          | None -> false
        in
        if not kept then Catalog.remove catalog m.m_name
      | None -> ())
    candidates;
  let shared_groups =
    Hashtbl.fold (fun _ _ acc -> acc + 1) matched 0
  in
  (finals, List.rev !shared, shared_groups, !chosen_count, !reuse_hits, !net_total)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let cost_of (r : Optimizer.result) =
  match r.Optimizer.plan with
  | Some p -> p.Optimizer.cost
  | None -> Cost.zero

let finish ~strategy ~inds ~final_plans ~final_costs ~reused ~shared ~shared_groups
    ~materialize_chosen ~reuse_hits ~batch_total ~stats =
  let independent_total =
    Array.fold_left (fun acc c -> acc +. scalar c) 0. (Array.map cost_of inds)
  in
  let results =
    Array.to_list
      (Array.mapi
         (fun i plan ->
           {
             plan;
             independent_cost = cost_of inds.(i);
             final_cost = final_costs.(i);
             reused = reused.(i);
           })
         final_plans)
  in
  {
    strategy;
    results;
    shared;
    independent_total;
    batch_total;
    shared_groups;
    materialize_chosen;
    reuse_hits;
    stats;
  }

let batch_with ~strategy ~(request : Optimizer.request) ~session
    (queries : (Logical.expr * Phys_prop.t) list)
    (inds : Optimizer.result array) =
  let catalog = request.Optimizer.catalog and params = request.Optimizer.params in
  match strategy with
  | Off ->
    let final_plans = Array.map (fun (r : Optimizer.result) -> r.Optimizer.plan) inds in
    let final_costs = Array.map cost_of inds in
    let batch_total = Array.fold_left (fun acc c -> acc +. scalar c) 0. final_costs in
    finish ~strategy ~inds ~final_plans ~final_costs
      ~reused:(Array.map (fun _ -> []) inds)
      ~shared:[] ~shared_groups:0 ~materialize_chosen:0 ~reuse_hits:0 ~batch_total
      ~stats:(Optimizer.session_stats session)
  | Volcano_sh ->
    let plans = Array.map (fun (r : Optimizer.result) -> r.Optimizer.plan) inds in
    let final_plans, shared, shared_groups, chosen, reuse_hits =
      sh_pass ~catalog ~params plans
    in
    let final_costs =
      Array.map
        (fun plan ->
          match plan with
          | Some (p : Optimizer.plan_node) -> p.Optimizer.cost
          | None -> Cost.zero)
        final_plans
    in
    let batch_total = Array.fold_left (fun acc c -> acc +. scalar c) 0. final_costs in
    finish ~strategy ~inds ~final_plans ~final_costs
      ~reused:(Array.map reused_of final_plans)
      ~shared ~shared_groups ~materialize_chosen:chosen ~reuse_hits ~batch_total
      ~stats:(Optimizer.session_stats session)
  | Volcano_ru ->
    let queries = Array.of_list queries in
    let finals, shared, shared_groups, chosen, reuse_hits, net_total =
      ru_pass ~catalog ~params ~session queries inds
    in
    let final_plans = Array.map (fun (r, _) -> r.Optimizer.plan) finals in
    let final_costs = Array.map (fun (r, _) -> cost_of r) finals in
    let independent_total =
      Array.fold_left (fun acc r -> acc +. scalar (cost_of r)) 0. inds
    in
    (* Batch total = independent total minus the strictly-positive net
       benefit of every chosen materialization (consumer gains less the
       one-time compute + write), so "chosen implies strictly cheaper"
       holds exactly. *)
    let batch_total = independent_total -. net_total in
    finish ~strategy ~inds ~final_plans ~final_costs
      ~reused:(Array.map (fun (_, reused) -> reused) finals)
      ~shared ~shared_groups ~materialize_chosen:chosen ~reuse_hits ~batch_total
      ~stats:(Optimizer.session_stats session)

let optimize_batch ?(strategy = Off) (request : Optimizer.request) queries =
  let session = Optimizer.session request in
  let results =
    List.map
      (fun (q, required) -> Optimizer.optimize_in session q ~required)
      queries
  in
  let inds = Array.of_list results in
  (* The report's stats are the session's cumulative effort: the
     independent pass plus whatever re-optimizations the strategy ran. *)
  batch_with ~strategy ~request ~session queries inds

let serve_batch ?(strategy = Off) srv worker queries =
  let request = Plansrv.service_request srv in
  let responses =
    List.map (fun (q, required) -> Plansrv.serve_one srv worker q ~required) queries
  in
  (* Independent results come from the plan cache; wrap them in the
     result shape the batch pass consumes. *)
  let inds =
    Array.of_list
      (List.map
         (fun (resp : Plansrv.response) ->
           {
             Optimizer.plan = resp.Plansrv.plan;
             complete = true;
             tasks_run = 0;
             stats = Volcano.Search_stats.create ();
             memo_groups = 0;
             memo_mexprs = 0;
             explain = None;
           })
         responses)
  in
  (* The strategy's own optimizations (Volcano-RU's materializations and
     rewritten queries) run in a session of their own. Its effort is the
     report's stats, and it is search done for the service, so it joins
     the service's counters. *)
  let session = Optimizer.session request in
  let report = batch_with ~strategy ~request ~session queries inds in
  Plansrv.note_search srv report.stats;
  (report, responses)

(* The report's sharing counters, by metric-name suffix. *)
let counters =
  [
    ("mqo_shared_groups", fun r -> r.shared_groups);
    ("mqo_materialize_chosen", fun r -> r.materialize_chosen);
    ("mqo_reuse_hits", fun r -> r.reuse_hits);
  ]

let metric_names prefix = List.map (fun (name, _) -> prefix ^ name) counters

let register ?report reg =
  List.iter
    (fun (name, read) ->
      Obs.Metrics.gauge reg ("volcano_search_" ^ name) (fun () ->
          match report with None -> 0. | Some r -> float_of_int (read r)))
    counters
