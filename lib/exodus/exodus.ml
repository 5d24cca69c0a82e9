open Relalg

type stats = {
  mutable classes : int;
  mutable nodes : int;
  mutable transformations : int;
  mutable reanalyses : int;
  mutable selections : int;
}

type result = {
  plan : Physical.plan option;
  cost : Cost.t;
  aborted : bool;
  stats : stats;
}

(* ---------------------------------------------------------------------- *)
(* MESH                                                                    *)
(* ---------------------------------------------------------------------- *)

type node = {
  nid : int;
  op : Logical.op;
  inputs : int list;  (* class ids *)
  mutable applied : int;  (* rule bitmask *)
  mutable node_alg : Physical.alg option;  (* chosen algorithm *)
  mutable node_cost : Cost.t;  (* total cost with chosen algorithm *)
}

type cls = {
  cid : int;
  mutable nodes : node list;
  props : Logical_props.t;
  mutable best : node option;
  mutable best_cost : Cost.t;
  mutable parents : (node * int) list;  (* consumer node and its class *)
}

type mesh = {
  catalog : Catalog.t;
  preds : Pred.table;  (** the run's interned predicates *)
  params : Cost_model.params;
  mutable classes : cls array;
  mutable n_classes : int;
  node_index : (Logical.op * int list, int) Hashtbl.t;  (* -> class id *)
  mutable newly : (node * int) list;  (* nodes added since last drain *)
  stats : stats;
}

let cls_of mesh c = mesh.classes.(c)

let new_class mesh props =
  let c =
    {
      cid = mesh.n_classes;
      nodes = [];
      props;
      best = None;
      best_cost = Cost.infinite;
      parents = [];
    }
  in
  if mesh.n_classes = Array.length mesh.classes then begin
    let bigger = Array.make (max 64 (2 * Array.length mesh.classes)) c in
    Array.blit mesh.classes 0 bigger 0 mesh.n_classes;
    mesh.classes <- bigger
  end;
  mesh.classes.(mesh.n_classes) <- c;
  mesh.n_classes <- mesh.n_classes + 1;
  mesh.stats.classes <- mesh.stats.classes + 1;
  c

(* ---------------------------------------------------------------------- *)
(* Algorithm selection and cost analysis (no physical properties:         *)
(* merge-based algorithms pay for sorting their own inputs)               *)
(* ---------------------------------------------------------------------- *)

let input_props mesh (n : node) = List.map (fun c -> (cls_of mesh c).props) n.inputs

let sort_into p (input : Logical_props.t) =
  Cost_model.cost p (Physical.Sort []) ~inputs:[ input ] ~output:input

let algorithm_options mesh (n : node) (out : Logical_props.t) :
    (Physical.alg * Cost.t) list =
  let p = mesh.params in
  let local alg inputs = Cost_model.cost p alg ~inputs ~output:out in
  match n.op, input_props mesh n with
  | Logical.Get t, [] -> [ (Physical.Table_scan t, local (Physical.Table_scan t) []) ]
  | Logical.Select pred, [ i ] -> [ (Physical.Filter pred, local (Physical.Filter pred) [ i ]) ]
  | Logical.Project cols, [ i ] ->
    [ (Physical.Project_cols cols, local (Physical.Project_cols cols) [ i ]) ]
  | Logical.Join pred, [ l; r ] ->
    let keys =
      Pred.equijoin_keys (Pred.of_expr mesh.preds pred) ~left:l.colset ~right:r.colset
    in
    let nl =
      [ (Physical.Nested_loop_join pred, local (Physical.Nested_loop_join pred) [ l; r ]) ]
    in
    if keys = [] then nl
    else begin
      let hash = (Physical.Hash_join (keys, pred), local (Physical.Hash_join (keys, pred)) [ l; r ]) in
      (* Merge join absorbs the cost of sorting both inputs: EXODUS had
         no enforcers, so "the cost of enforcers had to be included in
         the cost function of other algorithms such as merge-join". *)
      let merge_total =
        Cost.add
          (local (Physical.Merge_join (keys, pred)) [ l; r ])
          (Cost.add (sort_into p l) (sort_into p r))
      in
      let merge = (Physical.Merge_join (keys, pred), merge_total) in
      hash :: merge :: nl
    end
  | Logical.Union, [ l; r ] ->
    [
      (Physical.Hash_union, local Physical.Hash_union [ l; r ]);
      ( Physical.Merge_union,
        Cost.add (local Physical.Merge_union [ l; r ])
          (Cost.add (sort_into p l) (sort_into p r)) );
    ]
  | Logical.Intersect, [ l; r ] ->
    [
      (Physical.Hash_intersect, local Physical.Hash_intersect [ l; r ]);
      ( Physical.Merge_intersect,
        Cost.add (local Physical.Merge_intersect [ l; r ])
          (Cost.add (sort_into p l) (sort_into p r)) );
    ]
  | Logical.Difference, [ l; r ] ->
    [
      (Physical.Hash_difference, local Physical.Hash_difference [ l; r ]);
      ( Physical.Merge_difference,
        Cost.add (local Physical.Merge_difference [ l; r ])
          (Cost.add (sort_into p l) (sort_into p r)) );
    ]
  | Logical.Group_by (keys, aggs), [ i ] ->
    [
      (Physical.Hash_aggregate (keys, aggs), local (Physical.Hash_aggregate (keys, aggs)) [ i ]);
      ( Physical.Stream_aggregate (keys, aggs),
        Cost.add (local (Physical.Stream_aggregate (keys, aggs)) [ i ]) (sort_into p i) );
    ]
  | ( Logical.Get _ | Logical.Select _ | Logical.Project _ | Logical.Join _
    | Logical.Union | Logical.Intersect | Logical.Difference | Logical.Group_by _ ), _ ->
    invalid_arg "Exodus: arity mismatch in MESH"

(* Cost analysis of one node: pick its best algorithm given the current
   best costs of its input classes. *)
let analyze_node mesh (n : node) (c : cls) =
  mesh.stats.selections <- mesh.stats.selections + 1;
  let input_total =
    List.fold_left
      (fun acc ci -> Cost.add acc (cls_of mesh ci).best_cost)
      Cost.zero n.inputs
  in
  let best = ref None and best_cost = ref Cost.infinite in
  List.iter
    (fun (alg, local) ->
      let total = Cost.add local input_total in
      if Cost.( <% ) total !best_cost then begin
        best := Some alg;
        best_cost := total
      end)
    (algorithm_options mesh n c.props);
  n.node_alg <- !best;
  n.node_cost <- !best_cost

(* Recompute a class's best after one of its nodes changed; on
   improvement, reanalyze every consumer above (the EXODUS behaviour the
   paper measures as the dominant cost for larger queries). *)
let rec reanalyze_class mesh (c : cls) =
  let old = c.best_cost in
  c.best <- None;
  c.best_cost <- Cost.infinite;
  List.iter
    (fun n ->
      if Cost.( <% ) n.node_cost c.best_cost then begin
        c.best <- Some n;
        c.best_cost <- n.node_cost
      end)
    c.nodes;
  if Cost.compare c.best_cost old <> 0 then
    List.iter
      (fun (pn, pc) ->
        mesh.stats.reanalyses <- mesh.stats.reanalyses + 1;
        let pcls = cls_of mesh pc in
        analyze_node mesh pn pcls;
        reanalyze_class mesh pcls)
      c.parents

(* Add a node for [op inputs]. Within-class duplicates are folded;
   cross-class duplicates are detected only for fresh classes (EXODUS's
   MESH kept them, at the memory cost §4 describes — we reuse the class
   to keep the search finite but do not unify the classes). *)
let add_node mesh ~(target : cls option) (op : Logical.op) (inputs : int list) : cls * node option =
  match target with
  | Some c
    when List.exists (fun n -> Logical.op_equal n.op op && n.inputs = inputs) c.nodes ->
    (c, None)
  | _ ->
    let c =
      match target with
      | Some c -> c
      | None -> begin
        match Hashtbl.find_opt mesh.node_index (op, inputs) with
        | Some cid -> cls_of mesh cid
        | None ->
          let props =
            Relmodel.Derive.op mesh.catalog mesh.preds op
              (List.map (fun ci -> (cls_of mesh ci).props) inputs)
          in
          new_class mesh props
      end
    in
    if List.exists (fun n -> Logical.op_equal n.op op && n.inputs = inputs) c.nodes then
      (c, None)
    else begin
      let n =
        { nid = mesh.stats.nodes; op; inputs; applied = 0; node_alg = None;
          node_cost = Cost.infinite }
      in
      mesh.stats.nodes <- mesh.stats.nodes + 1;
      c.nodes <- n :: c.nodes;
      if not (Hashtbl.mem mesh.node_index (op, inputs)) then
        Hashtbl.add mesh.node_index (op, inputs) c.cid;
      List.iter
        (fun ci ->
          let ic = cls_of mesh ci in
          ic.parents <- (n, c.cid) :: ic.parents)
        inputs;
      analyze_node mesh n c;
      reanalyze_class mesh c;
      mesh.newly <- (n, c.cid) :: mesh.newly;
      (c, Some n)
    end

(* ---------------------------------------------------------------------- *)
(* Transformation rules (forward chaining)                                 *)
(* ---------------------------------------------------------------------- *)

(* Rule factors: the "expected cost improvement" multipliers an EXODUS
   optimizer implementor supplies. Associativity promises more than
   commutativity. *)
let rule_commute = 0
let rule_assoc = 1
let rule_select_push = 2

let rule_factor = function
  | r when r = rule_assoc -> 0.5
  | r when r = rule_select_push -> 0.4
  | _ -> 0.1

let n_rules = 3

(* Priority queue of pending transformations, keyed by expected cost
   improvement (higher first). EXODUS preferred transformations high in
   the expression, where current costs — and thus expected improvements
   — are largest. *)
module Pq = Set.Make (struct
  type t = float * int * int * int  (* priority, tiebreak, class id, node id *)

  let compare (p1, s1, _, _) (p2, s2, _, _) =
    match Float.compare p2 p1 with 0 -> Int.compare s1 s2 | c -> c
end)

type queue = {
  mutable pq : Pq.t;
  mutable seq : int;
  entries : (int * int, node * int) Hashtbl.t;  (* (node id, rule) -> node, class *)
}

let enqueue q (n : node) (c : cls) =
  for rule = 0 to n_rules - 1 do
    if n.applied land (1 lsl rule) = 0 then begin
      let priority = rule_factor rule *. Cost.total c.best_cost in
      let priority = if Float.is_nan priority || priority = Float.infinity then 1e9 else priority in
      q.pq <- Pq.add (priority, q.seq, c.cid, (n.nid * n_rules) + rule) q.pq;
      Hashtbl.replace q.entries ((n.nid * n_rules) + rule, c.cid) (n, c.cid);
      q.seq <- q.seq + 1
    end
  done

(* Apply one rule to one node, returning (op, inputs, target class)
   triples to materialize. *)
let apply_rule mesh (n : node) (c : cls) rule : unit =
  let results : (Logical.op * int list) list =
    if rule = rule_commute then begin
      match n.op, n.inputs with
      | Logical.Join p, [ l; r ] -> [ (Logical.Join p, [ r; l ]) ]
      | _ -> []
    end
    else if rule = rule_assoc then begin
      match n.op, n.inputs with
      | Logical.Join p1, [ l; r ] ->
        (* Enumerate join nodes of the left class. *)
        (cls_of mesh l).nodes
        |> List.filter_map (fun (ln : node) ->
               match ln.op, ln.inputs with
               | Logical.Join p2, [ a; b ] ->
                 let top, bottom =
                   Relmodel.Rewrites.assoc_split mesh.preds
                     ~p1:(Pred.of_expr mesh.preds p1) ~p2:(Pred.of_expr mesh.preds p2)
                     ~cols_b:(cls_of mesh b).props.Logical_props.colset
                     ~cols_c:(cls_of mesh r).props.Logical_props.colset
                 in
                 let inner, _ =
                   add_node mesh ~target:None (Logical.Join (Pred.expr bottom)) [ b; r ]
                 in
                 Some (Logical.Join (Pred.expr top), [ a; inner.cid ])
               | _ -> None)
      | _ -> []
    end
    else begin
      (* selection pushdown *)
      match n.op, n.inputs with
      | Logical.Select p, [ j ] ->
        (cls_of mesh j).nodes
        |> List.filter_map (fun (jn : node) ->
               match jn.op, jn.inputs with
               | Logical.Join jp, [ a; b ] ->
                 let on_left, on_right, to_join =
                   Relmodel.Rewrites.push_split (Pred.of_expr mesh.preds p)
                     ~left:(cls_of mesh a).props.Logical_props.colset
                     ~right:(cls_of mesh b).props.Logical_props.colset
                 in
                 if on_left = [] && on_right = [] && to_join = [] then None
                 else begin
                   let wrap side preds =
                     match preds with
                     | [] -> side
                     | _ ->
                       let sc, _ =
                         add_node mesh ~target:None
                           (Logical.Select (Pred.expr (Pred.conjoin mesh.preds preds)))
                           [ side ]
                       in
                       sc.cid
                   in
                   let jp' =
                     Pred.expr
                       (Pred.conjoin mesh.preds
                          (Pred.conjuncts (Pred.of_expr mesh.preds jp) @ to_join))
                   in
                   Some (Logical.Join jp', [ wrap a on_left; wrap b on_right ])
                 end
               | _ -> None)
      | _ -> []
    end
  in
  List.iter
    (fun (op, inputs) -> ignore (add_node mesh ~target:(Some c) op inputs))
    results

(* ---------------------------------------------------------------------- *)
(* Driver                                                                  *)
(* ---------------------------------------------------------------------- *)

let rec insert_query mesh (e : Logical.expr) : cls =
  let inputs = List.map (fun i -> (insert_query mesh i).cid) e.inputs in
  let c, _ = add_node mesh ~target:None e.op inputs in
  c

(* Extract the chosen plan; merge-based algorithms regain their implicit
   sorts as explicit operators so the plan remains executable. *)
let rec extract mesh (c : cls) : Physical.plan =
  match c.best with
  | None -> invalid_arg "Exodus.extract: class was never analyzed"
  | Some n -> begin
    let children = List.map (fun ci -> extract mesh (cls_of mesh ci)) n.inputs in
    match n.node_alg with
    | None -> invalid_arg "Exodus.extract: node has no algorithm"
    | Some (Physical.Merge_join (keys, pred)) -> begin
      match children with
      | [ l; r ] ->
        let lsort = Sort_order.asc (List.map fst keys) in
        let rsort = Sort_order.asc (List.map snd keys) in
        Physical.mk
          (Physical.Merge_join (keys, pred))
          [ Physical.mk (Physical.Sort lsort) [ l ]; Physical.mk (Physical.Sort rsort) [ r ] ]
      | _ -> assert false
    end
    | Some ((Physical.Merge_union | Physical.Merge_intersect | Physical.Merge_difference) as alg)
      -> begin
      match children, input_props mesh n with
      | [ l; r ], [ lp; rp ] ->
        let order schema = Sort_order.asc (Schema.names schema) in
        Physical.mk alg
          [
            Physical.mk (Physical.Sort (order lp.Logical_props.schema)) [ l ];
            Physical.mk (Physical.Sort (order rp.Logical_props.schema)) [ r ];
          ]
      | _, _ -> assert false
    end
    | Some (Physical.Stream_aggregate (keys, aggs)) -> begin
      match children with
      | [ i ] ->
        Physical.mk
          (Physical.Stream_aggregate (keys, aggs))
          [ Physical.mk (Physical.Sort (Sort_order.asc keys)) [ i ] ]
      | _ -> assert false
    end
    | Some alg -> Physical.mk alg children
  end

let optimize ~catalog ?(params = Cost_model.default) ?(max_nodes = max_int)
    (query : Logical.expr) ~required =
  let stats = { classes = 0; nodes = 0; transformations = 0; reanalyses = 0; selections = 0 } in
  let mesh =
    {
      catalog;
      preds = Pred.create ();
      params;
      classes = [||];
      n_classes = 0;
      node_index = Hashtbl.create 256;
      newly = [];
      stats;
    }
  in
  let root = insert_query mesh query in
  mesh.newly <- [];
  let q = { pq = Pq.empty; seq = 0; entries = Hashtbl.create 256 } in
  (* Seed the queue with every (node, rule) pair in the initial MESH. *)
  for ci = 0 to mesh.n_classes - 1 do
    let c = mesh.classes.(ci) in
    List.iter (fun n -> enqueue q n c) c.nodes
  done;
  (* Forward chaining: pop the most promising transformation, apply it,
     analyze, reanalyze consumers, enqueue new opportunities. New nodes
     created during application are enqueued on the fly. *)
  let continue_ = ref true in
  let aborted = ref false in
  while !continue_ do
    if stats.nodes > max_nodes then begin
      aborted := true;
      continue_ := false
    end
    else
    match Pq.min_elt_opt q.pq with
    | None -> continue_ := false
    | Some ((_, _, cid, nr) as entry) ->
      q.pq <- Pq.remove entry q.pq;
      let rule = nr mod n_rules in
      (match Hashtbl.find_opt q.entries (nr, cid) with
       | None -> ()
       | Some (n, _) ->
         if n.applied land (1 lsl rule) = 0 then begin
           n.applied <- n.applied lor (1 lsl rule);
           stats.transformations <- stats.transformations + 1;
           apply_rule mesh n (cls_of mesh cid) rule;
           (* Enqueue the transformations the new nodes enable. *)
           let fresh = mesh.newly in
           mesh.newly <- [];
           List.iter (fun (n', ci) -> enqueue q n' (cls_of mesh ci)) fresh
         end)
  done;
  (* Glue: a required sort order is established after the fact, EXODUS
     and Starburst style. *)
  match root.best with
  | None -> { plan = None; cost = Cost.infinite; aborted = !aborted; stats }
  | Some _ ->
    let base = extract mesh root in
    let base_cost = root.best_cost in
    if required.Phys_prop.order = [] then
      { plan = Some base; cost = base_cost; aborted = !aborted; stats }
    else begin
      let sort = Physical.mk (Physical.Sort required.Phys_prop.order) [ base ] in
      let glue =
        Cost_model.cost params
          (Physical.Sort required.Phys_prop.order)
          ~inputs:[ root.props ] ~output:root.props
      in
      { plan = Some sort; cost = Cost.add base_cost glue; aborted = !aborted; stats }
    end
