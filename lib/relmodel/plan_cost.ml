open Relalg

let derive_alg catalog preds (alg : Physical.alg) (inputs : Logical_props.t list) :
    Logical_props.t =
  let child i = List.nth inputs i in
  let derive op inputs = Derive.op catalog preds op inputs in
  match alg with
  | Physical.Table_scan t | Physical.Scan_materialized t -> derive (Logical.Get t) []
  | Physical.Index_scan (t, _, pred) -> derive (Logical.Select pred) [ derive (Logical.Get t) [] ]
  | Physical.Filter pred -> derive (Logical.Select pred) [ child 0 ]
  | Physical.Project_cols cols -> derive (Logical.Project cols) [ child 0 ]
  | Physical.Nested_loop_join pred | Physical.Merge_join (_, pred)
  | Physical.Hash_join (_, pred) ->
    derive (Logical.Join pred) [ child 0; child 1 ]
  | Physical.Hash_join_project (_, pred, cols) ->
    derive (Logical.Project cols)
      [ derive (Logical.Join pred) [ child 0; child 1 ] ]
  | Physical.Sort _ -> child 0
  | Physical.Hash_dedup | Physical.Sort_dedup _ | Physical.Materialize _ -> child 0
  | Physical.Repartition _ | Physical.Gather | Physical.Merge_gather _ -> child 0
  | Physical.Merge_union | Physical.Hash_union ->
    derive Logical.Union [ child 0; child 1 ]
  | Physical.Merge_intersect | Physical.Hash_intersect ->
    derive Logical.Intersect [ child 0; child 1 ]
  | Physical.Merge_difference | Physical.Hash_difference ->
    derive Logical.Difference [ child 0; child 1 ]
  | Physical.Stream_aggregate (keys, aggs) | Physical.Hash_aggregate (keys, aggs) ->
    derive (Logical.Group_by (keys, aggs)) [ child 0 ]

let props catalog (p : Physical.plan) : Logical_props.t =
  let preds = Pred.create () in
  let rec go (p : Physical.plan) = derive_alg catalog preds p.alg (List.map go p.children) in
  go p

let estimate catalog (plan : Physical.plan) : Cost.t =
  let preds = Pred.create () in
  let rec go (p : Physical.plan) : Cost.t * Logical_props.t =
    let results = List.map go p.children in
    let input_costs = List.map fst results and input_props = List.map snd results in
    let output = derive_alg catalog preds p.alg input_props in
    let local = Cost_model.cost Cost_model.default p.alg ~inputs:input_props ~output in
    (List.fold_left Cost.add local input_costs, output)
  in
  fst (go plan)
