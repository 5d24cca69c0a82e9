open Relalg

type t = {
  key : string;
  tables : string list;
  param : (string * Value.t) option;
}

(* ---------- predicate normal form ---------- *)

let swap_cmp = function
  | Expr.Lt -> Expr.Gt
  | Expr.Le -> Expr.Ge
  | Expr.Gt -> Expr.Lt
  | Expr.Ge -> Expr.Le
  | Expr.Eq -> Expr.Eq
  | Expr.Ne -> Expr.Ne

(* Column-first orientation keeps the shape the selectivity estimator
   pattern-matches on; two columns (or two constants) are ordered by
   their rendering. *)
let canon_cmp op a b =
  let keep = Expr.Cmp (op, a, b) and swapped = Expr.Cmp (swap_cmp op, b, a) in
  match a, b with
  | Expr.Col _, Expr.Col _ | Expr.Const _, Expr.Const _ ->
    if Expr.to_string a <= Expr.to_string b then keep else swapped
  | Expr.Col _, _ -> keep
  | _, Expr.Col _ -> swapped
  | _, _ -> if Expr.to_string a <= Expr.to_string b then keep else swapped

let rec flatten_and = function
  | Expr.And (a, b) -> flatten_and a @ flatten_and b
  | e -> [ e ]

let rec flatten_or = function
  | Expr.Or (a, b) -> flatten_or a @ flatten_or b
  | e -> [ e ]

let sort_by_rendering = List.sort (fun a b -> compare (Expr.to_string a) (Expr.to_string b))

let rebuild join = function
  | [] -> assert false
  | first :: rest -> List.fold_left join first rest

let rec canon_expr (e : Expr.t) : Expr.t =
  match e with
  | Expr.Col _ | Expr.Const _ -> e
  | Expr.Not a -> Expr.Not (canon_expr a)
  | Expr.Cmp (op, a, b) -> canon_cmp op (canon_expr a) (canon_expr b)
  | Expr.Arith (op, a, b) -> begin
    let a = canon_expr a and b = canon_expr b in
    match op with
    | Expr.Add | Expr.Mul ->
      if Expr.to_string a <= Expr.to_string b then Expr.Arith (op, a, b)
      else Expr.Arith (op, b, a)
    | Expr.Sub | Expr.Div -> Expr.Arith (op, a, b)
  end
  | Expr.And _ ->
    flatten_and e |> List.map canon_expr |> sort_by_rendering
    |> rebuild (fun a b -> Expr.And (a, b))
  | Expr.Or _ ->
    flatten_or e |> List.map canon_expr |> sort_by_rendering
    |> rebuild (fun a b -> Expr.Or (a, b))

(* ---------- logical normal form ---------- *)

let rec encode (e : Logical.expr) =
  match e.Logical.inputs with
  | [] -> Logical.op_name e.Logical.op
  | inputs ->
    Logical.op_name e.Logical.op ^ "(" ^ String.concat "," (List.map encode inputs) ^ ")"

let rec canonicalize (e : Logical.expr) : Logical.expr =
  let inputs = List.map canonicalize e.Logical.inputs in
  match e.Logical.op, inputs with
  | Logical.Select p, [ i ] -> Logical.mk (Logical.Select (canon_expr p)) [ i ]
  | Logical.Join p, [ l; r ] ->
    let p = canon_expr p in
    let l, r = if encode l <= encode r then (l, r) else (r, l) in
    Logical.mk (Logical.Join p) [ l; r ]
  | (Logical.Union | Logical.Intersect), [ l; r ] ->
    let l, r = if encode l <= encode r then (l, r) else (r, l) in
    Logical.mk e.Logical.op [ l; r ]
  | op, inputs -> Logical.mk op inputs

(* ---------- per-subtree keys (multi-query sharing) ---------- *)

(* Bottom-up keys over the canonical form. Each node's key is built from
   its children's keys (the same construction as [encode], so
   [fst (List.nth (subtrees q) i)] = [encode] of that canonical
   subtree), making the walk near-linear instead of quadratic. Emitted
   in post-order: children strictly before parents. *)
let subtrees query =
  let canonical = canonicalize query in
  let acc = ref [] in
  let rec go (e : Logical.expr) : string =
    let child_keys = List.map go e.Logical.inputs in
    let key =
      match child_keys with
      | [] -> Logical.op_name e.Logical.op
      | ks -> Logical.op_name e.Logical.op ^ "(" ^ String.concat "," ks ^ ")"
    in
    acc := (key, e) :: !acc;
    key
  in
  ignore (go canonical);
  List.rev !acc

let expr_key e = encode (canonicalize e)

(* ---------- parameter slots ---------- *)

let is_numeric = function
  | Value.Int _ | Value.Float _ -> true
  | Value.Null | Value.Bool _ | Value.Str _ -> false

(* Column-versus-numeric-literal comparisons, in traversal order. Only
   the direct [col op const] shape qualifies; literals nested inside
   arithmetic stay part of the fingerprint. *)
let rec expr_slots (e : Expr.t) acc =
  match e with
  | Expr.Cmp (_, Expr.Col c, Expr.Const v) when is_numeric v -> (c, v) :: acc
  | Expr.Cmp (_, Expr.Const v, Expr.Col c) when is_numeric v -> (c, v) :: acc
  | Expr.Cmp _ | Expr.Col _ | Expr.Const _ -> acc
  | Expr.And (a, b) | Expr.Or (a, b) | Expr.Arith (_, a, b) ->
    expr_slots b (expr_slots a acc)
  | Expr.Not a -> expr_slots a acc

let rec query_slots (e : Logical.expr) acc =
  let acc =
    match e.Logical.op with
    | Logical.Select p | Logical.Join p -> expr_slots p acc
    | Logical.Get _ | Logical.Project _ | Logical.Union | Logical.Intersect
    | Logical.Difference | Logical.Group_by _ ->
      acc
  in
  List.fold_left (fun acc i -> query_slots i acc) acc e.Logical.inputs

let slots e = List.rev (query_slots e [])

let rec subst_slot_expr (e : Expr.t) value : Expr.t =
  match e with
  | Expr.Cmp (op, (Expr.Col _ as c), Expr.Const v) when is_numeric v ->
    Expr.Cmp (op, c, Expr.Const value)
  | Expr.Cmp (op, Expr.Const v, (Expr.Col _ as c)) when is_numeric v ->
    Expr.Cmp (op, Expr.Const value, c)
  | Expr.Cmp _ | Expr.Col _ | Expr.Const _ -> e
  | Expr.And (a, b) -> Expr.And (subst_slot_expr a value, subst_slot_expr b value)
  | Expr.Or (a, b) -> Expr.Or (subst_slot_expr a value, subst_slot_expr b value)
  | Expr.Not a -> Expr.Not (subst_slot_expr a value)
  | Expr.Arith (op, a, b) ->
    Expr.Arith (op, subst_slot_expr a value, subst_slot_expr b value)

let rec subst_slot (e : Logical.expr) value : Logical.expr =
  let inputs = List.map (fun i -> subst_slot i value) e.Logical.inputs in
  match e.Logical.op with
  | Logical.Select p -> Logical.mk (Logical.Select (subst_slot_expr p value)) inputs
  | Logical.Join p -> Logical.mk (Logical.Join (subst_slot_expr p value)) inputs
  | op -> Logical.mk op inputs

let with_parameter e value =
  match slots e with
  | [ _ ] -> subst_slot e value
  | ss ->
    invalid_arg
      (Printf.sprintf "Fingerprint.with_parameter: %d parameter slots (need exactly 1)"
         (List.length ss))

(* ---------- keys ---------- *)

let of_query ?(parameterize = false) query ~required =
  let canonical = canonicalize query in
  let param, keyed =
    if not parameterize then (None, canonical)
    else
      match slots canonical with
      | [ (column, value) ] ->
        (Some (column, value), subst_slot canonical (Value.Str "?"))
      | _ -> (None, canonical)
  in
  let key = encode keyed ^ " | " ^ Phys_prop.to_string required in
  let tables = List.sort_uniq String.compare (Logical.relations canonical) in
  ({ key; tables; param }, canonical)
