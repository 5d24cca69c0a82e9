open Relalg

let agg_type (input : Schema.t) (a : Logical.agg) =
  match a.func, a.column with
  | Logical.Count, _ -> Schema.TInt
  | Logical.Avg, _ -> Schema.TFloat
  | (Logical.Sum | Logical.Min | Logical.Max), Some col -> (Schema.find input col).ty
  | (Logical.Sum | Logical.Min | Logical.Max), None ->
    invalid_arg "Derive: aggregate other than count requires a column"

let interned registry preds (o : Logical.op) (pred : Pred.t) (inputs : Logical_props.t list) :
    Logical_props.t =
  let in1 () = match inputs with [ i ] -> i | _ -> invalid_arg "Derive.op: unary arity" in
  let in2 () =
    match inputs with [ l; r ] -> (l, r) | _ -> invalid_arg "Derive.op: binary arity"
  in
  match o with
  | Logical.Get name ->
    let p = Catalog.base_props (Catalog.find registry name) in
    { p with colset = Pred.colset preds p.schema }
  | Logical.Select _ ->
    let i = in1 () in
    let sel = Catalog.Selectivity.predicate i (Pred.expr pred) in
    Logical_props.make ~schema:i.schema ~card:(i.card *. sel) ~distincts:i.distincts
      ~ranges:i.ranges ~relations:i.relations ~grouped:i.grouped ~colset:i.colset ()
  | Logical.Project cols ->
    let i = in1 () in
    let schema = Schema.project i.schema cols in
    let keep assoc = List.filter (fun (c, _) -> Schema.mem schema c) assoc in
    Logical_props.make ~schema ~card:i.card ~distincts:(keep i.distincts)
      ~ranges:(keep i.ranges) ~relations:i.relations ~grouped:i.grouped
      ~colset:(Pred.colset preds schema) ()
  | Logical.Join _ ->
    let l, r = in2 () in
    let sel = Catalog.Selectivity.join ~left:l ~right:r pred in
    Logical_props.make
      ~schema:(Schema.concat l.schema r.schema)
      ~card:(l.card *. r.card *. sel)
      ~distincts:(l.distincts @ r.distincts)
      ~ranges:(l.ranges @ r.ranges)
      ~relations:(l.relations @ r.relations)
      ~grouped:(l.grouped || r.grouped)
      ~colset:(Pred.concat l.colset r.colset) ()
  | Logical.Union ->
    let l, r = in2 () in
    Logical_props.make ~schema:l.schema ~card:(l.card +. r.card) ~distincts:l.distincts
      ~ranges:l.ranges ~relations:(l.relations @ r.relations)
      ~grouped:(l.grouped || r.grouped) ~colset:l.colset ()
  | Logical.Intersect ->
    let l, r = in2 () in
    Logical_props.make ~schema:l.schema
      ~card:(Float.min l.card r.card /. 2.)
      ~distincts:l.distincts ~ranges:l.ranges ~relations:(l.relations @ r.relations)
      ~grouped:(l.grouped || r.grouped) ~colset:l.colset ()
  | Logical.Difference ->
    let l, r = in2 () in
    Logical_props.make ~schema:l.schema ~card:(l.card /. 2.) ~distincts:l.distincts
      ~ranges:l.ranges ~relations:(l.relations @ r.relations)
      ~grouped:(l.grouped || r.grouped) ~colset:l.colset ()
  | Logical.Group_by (keys, aggs) ->
    let i = in1 () in
    let key_schema = Schema.project i.schema keys in
    let agg_schema =
      Array.of_list
        (List.map (fun a -> Schema.attribute (Logical.agg_result_name a) (agg_type i.schema a)) aggs)
    in
    let schema = Schema.concat key_schema agg_schema in
    let groups =
      List.fold_left (fun acc k -> acc *. Logical_props.distinct_of i k) 1. keys
    in
    let card = Float.max 1. (Float.min i.card groups) in
    let distincts =
      List.filter_map
        (fun (c, d) -> if Schema.mem key_schema c then Some (c, Float.min d card) else None)
        i.distincts
    in
    Logical_props.make ~schema ~card ~distincts ~relations:i.relations ~grouped:true
      ~colset:(Pred.colset preds schema) ()

let predicate preds (o : Logical.op) =
  match o with
  | Logical.Select p | Logical.Join p -> Pred.of_expr preds p
  | Logical.Get _ | Logical.Project _ | Logical.Union | Logical.Intersect | Logical.Difference
  | Logical.Group_by _ ->
    Pred.of_expr preds Expr.true_

let op registry preds o inputs = interned registry preds o (predicate preds o) inputs

let expr registry (e : Logical.expr) =
  let preds = Pred.create () in
  let rec go (e : Logical.expr) = op registry preds e.op (List.map go e.inputs) in
  go e
