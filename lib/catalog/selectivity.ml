open Relalg

let default_unknown = 1. /. 3.

let clamp s = Float.max 0. (Float.min 1. s)

let const_float = function
  | Expr.Const v -> Value.to_float v
  | Expr.Col _ | Expr.Cmp _ | Expr.And _ | Expr.Or _ | Expr.Not _ | Expr.Arith _ -> None

(* Fraction of [lo, hi] lying below/above a constant, by linear
   interpolation (System R style). *)
let range_fraction (lo, hi) op c =
  if hi <= lo then default_unknown
  else
    let f = (c -. lo) /. (hi -. lo) in
    let f = clamp f in
    match op with
    | Expr.Lt | Expr.Le -> f
    | Expr.Gt | Expr.Ge -> 1. -. f
    | Expr.Eq | Expr.Ne -> default_unknown

let rec conjunct_selectivity props e =
  match e with
  | Expr.Const (Value.Bool true) -> 1.
  | Expr.Const (Value.Bool false) -> 0.
  | Expr.Cmp (Expr.Eq, Expr.Col c, Expr.Const _)
  | Expr.Cmp (Expr.Eq, Expr.Const _, Expr.Col c) ->
    1. /. Float.max 1. (Logical_props.distinct_of props c)
  | Expr.Cmp (Expr.Ne, Expr.Col c, Expr.Const _)
  | Expr.Cmp (Expr.Ne, Expr.Const _, Expr.Col c) ->
    1. -. (1. /. Float.max 1. (Logical_props.distinct_of props c))
  | Expr.Cmp (op, Expr.Col c, (Expr.Const _ as k)) ->
    (match Logical_props.range_of props c, const_float k with
     | Some range, Some v -> range_fraction range op v
     | _, _ -> default_unknown)
  | Expr.Cmp (op, (Expr.Const _ as k), Expr.Col c) ->
    let flipped =
      match op with
      | Expr.Lt -> Expr.Gt
      | Expr.Le -> Expr.Ge
      | Expr.Gt -> Expr.Lt
      | Expr.Ge -> Expr.Le
      | Expr.Eq -> Expr.Eq
      | Expr.Ne -> Expr.Ne
    in
    conjunct_selectivity props (Expr.Cmp (flipped, Expr.Col c, k))
  | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b) ->
    let da = Logical_props.distinct_of props a
    and db = Logical_props.distinct_of props b in
    1. /. Float.max 1. (Float.max da db)
  | Expr.And (a, b) -> conjunct_selectivity props a *. conjunct_selectivity props b
  | Expr.Or (a, b) ->
    let sa = conjunct_selectivity props a and sb = conjunct_selectivity props b in
    clamp (sa +. sb -. (sa *. sb))
  | Expr.Not a -> clamp (1. -. conjunct_selectivity props a)
  | Expr.Cmp _ | Expr.Col _ | Expr.Const _ | Expr.Arith _ -> default_unknown

let predicate props e =
  clamp
    (List.fold_left
       (fun acc c -> acc *. conjunct_selectivity props c)
       1. (Expr.conjuncts e))

let join ~left ~right p =
  let keys =
    Pred.equijoin_keys p ~left:left.Logical_props.colset ~right:right.Logical_props.colset
  in
  let key_cols = List.concat_map (fun (l, r) -> [ l; r ]) keys in
  let key_selectivity =
    (* Unclamped distinct counts keep the estimate identical for every
       derivation of the same join subset (memo classes freeze their
       properties at first derivation; plans are re-costed along their
       own shape — both must agree). *)
    let raw props col =
      match Logical_props.distinct_raw props col with
      | Some d -> d
      | None -> props.Logical_props.card
    in
    List.fold_left
      (fun acc (l, r) ->
        let dl = raw left l and dr = raw right r in
        acc /. Float.max 1. (Float.max dl dr))
      1. keys
  in
  (* Residual conjuncts (not equi-join keys) estimated locally against
     whichever side they mention, or the generic default. *)
  let residual_selectivity =
    List.fold_left
      (fun acc c ->
        match Pred.conj_expr c with
        | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b)
          when List.mem a key_cols && List.mem b key_cols ->
          acc
        | e ->
          let s =
            if Pred.refers_only_to left.Logical_props.colset c then conjunct_selectivity left e
            else if Pred.refers_only_to right.Logical_props.colset c then
              conjunct_selectivity right e
            else default_unknown
          in
          acc *. s)
      1. (Pred.conjuncts p)
  in
  clamp (key_selectivity *. residual_selectivity)
