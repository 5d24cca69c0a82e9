type agg_func =
  | Count
  | Sum
  | Min
  | Max
  | Avg

type agg = {
  func : agg_func;
  column : string option;
  alias : string;
}

type op =
  | Get of string
  | Select of Expr.t
  | Project of string list
  | Join of Expr.t
  | Union
  | Intersect
  | Difference
  | Group_by of string list * agg list

type expr = {
  op : op;
  inputs : expr list;
}

let arity = function
  | Get _ -> 0
  | Select _ | Project _ | Group_by _ -> 1
  | Join _ | Union | Intersect | Difference -> 2

let mk op inputs =
  if List.length inputs <> arity op then
    invalid_arg "Logical.mk: arity mismatch"
  else { op; inputs }

let get name = mk (Get name) []
let select pred input = mk (Select pred) [ input ]
let project cols input = mk (Project cols) [ input ]
let join pred l r = mk (Join pred) [ l; r ]
let union l r = mk Union [ l; r ]
let intersect l r = mk Intersect [ l; r ]
let difference l r = mk Difference [ l; r ]
let group_by keys aggs input = mk (Group_by (keys, aggs)) [ input ]

let agg_func_name = function
  | Count -> "count"
  | Sum -> "sum"
  | Min -> "min"
  | Max -> "max"
  | Avg -> "avg"

let agg_result_name a = a.alias

let op_name = function
  | Get t -> "get(" ^ t ^ ")"
  | Select p -> "select[" ^ Expr.to_string p ^ "]"
  | Project cols -> "project[" ^ String.concat ", " cols ^ "]"
  | Join p -> "join[" ^ Expr.to_string p ^ "]"
  | Union -> "union"
  | Intersect -> "intersect"
  | Difference -> "difference"
  | Group_by (keys, aggs) ->
    Printf.sprintf "group_by[%s; %s]" (String.concat ", " keys)
      (String.concat ", "
         (List.map
            (fun a ->
              Printf.sprintf "%s(%s) as %s" (agg_func_name a.func)
                (Option.value a.column ~default:"*")
                a.alias)
            aggs))

let op_equal (a : op) (b : op) = a = b

let equal (a : expr) (b : expr) = a = b

let rec size e = 1 + List.fold_left (fun acc i -> acc + size i) 0 e.inputs

let rec relations e =
  match e.op with
  | Get t -> [ t ]
  | Select _ | Project _ | Join _ | Union | Intersect | Difference | Group_by _ ->
    List.concat_map relations e.inputs

let rec pp_indent ppf depth e =
  Format.fprintf ppf "%s%s" (String.make (2 * depth) ' ') (op_name e.op);
  List.iter (fun i -> Format.fprintf ppf "@\n%a" (fun ppf -> pp_indent ppf (depth + 1)) i) e.inputs

let pp ppf e = pp_indent ppf 0 e
