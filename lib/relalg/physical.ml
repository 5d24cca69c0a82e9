type alg =
  | Table_scan of string
  | Index_scan of string * string list * Expr.t
  | Filter of Expr.t
  | Project_cols of string list
  | Nested_loop_join of Expr.t
  | Merge_join of (string * string) list * Expr.t
  | Hash_join of (string * string) list * Expr.t
  | Hash_join_project of (string * string) list * Expr.t * string list
  | Sort of Sort_order.t
  | Hash_dedup
  | Sort_dedup of Sort_order.t
  | Repartition of string list
  | Gather
  | Merge_gather of Sort_order.t
  | Merge_union
  | Hash_union
  | Merge_intersect
  | Hash_intersect
  | Merge_difference
  | Hash_difference
  | Stream_aggregate of string list * Logical.agg list
  | Hash_aggregate of string list * Logical.agg list
  | Materialize of string
  | Scan_materialized of string

type plan = {
  alg : alg;
  children : plan list;
}

let arity = function
  | Table_scan _ | Index_scan _ | Scan_materialized _ -> 0
  | Filter _ | Project_cols _ | Sort _ | Hash_dedup | Sort_dedup _ | Repartition _
  | Gather | Merge_gather _ | Stream_aggregate _ | Hash_aggregate _ | Materialize _ -> 1
  | Nested_loop_join _ | Merge_join _ | Hash_join _ | Hash_join_project _ | Merge_union
  | Hash_union | Merge_intersect | Hash_intersect | Merge_difference | Hash_difference -> 2

let mk alg children =
  if List.length children <> arity alg then invalid_arg "Physical.mk: arity mismatch"
  else { alg; children }

let is_enforcer = function
  | Sort _ | Hash_dedup | Sort_dedup _ | Repartition _ | Gather | Merge_gather _ -> true
  | Table_scan _ | Index_scan _ | Filter _ | Project_cols _ | Nested_loop_join _
  | Merge_join _ | Hash_join _ | Hash_join_project _ | Merge_union | Hash_union
  | Merge_intersect | Hash_intersect | Merge_difference | Hash_difference
  | Stream_aggregate _ | Hash_aggregate _ | Materialize _ | Scan_materialized _ -> false

let keys_to_string keys =
  String.concat ", " (List.map (fun (l, r) -> l ^ "=" ^ r) keys)

let alg_name = function
  | Table_scan t -> "table_scan(" ^ t ^ ")"
  | Index_scan (t, cols, pred) ->
    Printf.sprintf "index_scan(%s on %s)[%s]" t (String.concat ", " cols)
      (Expr.to_string pred)
  | Filter p -> "filter[" ^ Expr.to_string p ^ "]"
  | Project_cols cols -> "project[" ^ String.concat ", " cols ^ "]"
  | Nested_loop_join p -> "nested_loop_join[" ^ Expr.to_string p ^ "]"
  | Merge_join (keys, _) -> "merge_join[" ^ keys_to_string keys ^ "]"
  | Hash_join (keys, _) -> "hybrid_hash_join[" ^ keys_to_string keys ^ "]"
  | Hash_join_project (keys, _, cols) ->
    Printf.sprintf "hash_join_project[%s -> %s]" (keys_to_string keys)
      (String.concat ", " cols)
  | Sort order -> "sort[" ^ Sort_order.to_string order ^ "]"
  | Hash_dedup -> "hash_dedup"
  | Sort_dedup order -> "sort_dedup[" ^ Sort_order.to_string order ^ "]"
  | Repartition cols -> "exchange_repartition[" ^ String.concat ", " cols ^ "]"
  | Gather -> "exchange_gather"
  | Merge_gather order -> "exchange_merge_gather[" ^ Sort_order.to_string order ^ "]"
  | Merge_union -> "merge_union"
  | Hash_union -> "hash_union"
  | Merge_intersect -> "merge_intersect"
  | Hash_intersect -> "hash_intersect"
  | Merge_difference -> "merge_difference"
  | Hash_difference -> "hash_difference"
  | Stream_aggregate (keys, _) -> "stream_aggregate[" ^ String.concat ", " keys ^ "]"
  | Hash_aggregate (keys, _) -> "hash_aggregate[" ^ String.concat ", " keys ^ "]"
  | Materialize t -> "materialize(" ^ t ^ ")"
  | Scan_materialized t -> "scan_materialized(" ^ t ^ ")"

let rec size p = 1 + List.fold_left (fun acc c -> acc + size c) 0 p.children

let rec pp_indent ppf depth p =
  Format.fprintf ppf "%s%s" (String.make (2 * depth) ' ') (alg_name p.alg);
  List.iter
    (fun c -> Format.fprintf ppf "@\n%a" (fun ppf -> pp_indent ppf (depth + 1)) c)
    p.children

let pp ppf p = pp_indent ppf 0 p

let to_string p = Format.asprintf "%a" pp p
