type cmp =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

type arith =
  | Add
  | Sub
  | Mul
  | Div

type t =
  | Col of string
  | Const of Value.t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Arith of arith * t * t

let col c = Col c
let int i = Const (Value.Int i)
let str s = Const (Value.Str s)
let bool b = Const (Value.Bool b)
let float f = Const (Value.Float f)

let ( =% ) a b = Cmp (Eq, a, b)
let ( <% ) a b = Cmp (Lt, a, b)
let ( <=% ) a b = Cmp (Le, a, b)
let ( >% ) a b = Cmp (Gt, a, b)
let ( >=% ) a b = Cmp (Ge, a, b)
let ( &&% ) a b = And (a, b)
let ( ||% ) a b = Or (a, b)

let true_ = Const (Value.Bool true)

let rec mem_column c = function
  | [] -> false
  | x :: rest -> String.equal x c || mem_column c rest

(* Predicates name a handful of columns, so a list scan finds repeats
   with no per-call table. *)
let rec add_columns acc = function
  | Col c -> if mem_column c acc then acc else c :: acc
  | Const _ -> acc
  | Not e -> add_columns acc e
  | Cmp (_, a, b) | And (a, b) | Or (a, b) | Arith (_, a, b) ->
    add_columns (add_columns acc a) b

let columns expr = List.rev (add_columns [] expr)

let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | Const (Value.Bool true) -> []
  | e -> [ e ]

let conjoin conjs =
  (* Canonical conjunct order, so predicates assembled along different
     rewrite paths compare equal — the memo deduplicates expressions by
     structural equality of their operators. *)
  match List.sort_uniq compare conjs with
  | [] -> true_
  | e :: rest -> List.fold_left (fun acc c -> And (acc, c)) e rest

(* Whether [Value.compare]'s result [c] satisfies [op]. *)
let sign_holds op c =
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(* [a op b] holds exactly when [b (flip op) a] does: [Value.compare] is
   antisymmetric. *)
let flip = function Eq -> Eq | Ne -> Ne | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le

(* Predicate results are these two shared constants, so evaluating a
   comparison allocates nothing. *)
let vtrue = Value.Bool true
let vfalse = Value.Bool false

(* Every compiled expression reads a pair of rows: [schema] is the
   pair's schema, and positions below [nl] are the left row's. A single
   row is evaluated as the pair of itself with itself, all of its
   columns on the left. *)

(* The three-valued evaluator, with every column resolved up front. *)
let rec value schema nl = function
  | Col c ->
    let i = Schema.index_of schema c in
    if i < nl then fun (l : Tuple.t) _ -> l.(i)
    else begin
      let j = i - nl in
      fun _ (r : Tuple.t) -> r.(j)
    end
  | Const v -> fun _ _ -> v
  | Cmp (op, a, b) ->
    let fa = value schema nl a and fb = value schema nl b in
    fun l r ->
      let va = fa l r and vb = fb l r in
      if Value.is_null va || Value.is_null vb then Value.Null
      else if sign_holds op (Value.compare va vb) then vtrue
      else vfalse
  | And (a, b) ->
    let fa = value schema nl a and fb = value schema nl b in
    fun l r ->
      (match fa l r with
       | Value.Bool false -> vfalse
       | Value.Bool true -> fb l r
       | _ -> (match fb l r with Value.Bool false -> vfalse | _ -> Value.Null))
  | Or (a, b) ->
    let fa = value schema nl a and fb = value schema nl b in
    fun l r ->
      (match fa l r with
       | Value.Bool true -> vtrue
       | Value.Bool false -> fb l r
       | _ -> (match fb l r with Value.Bool true -> vtrue | _ -> Value.Null))
  | Not e ->
    let f = value schema nl e in
    fun l r ->
      (match f l r with
       | Value.Bool true -> vfalse
       | Value.Bool false -> vtrue
       | _ -> Value.Null)
  | Arith (op, a, b) ->
    let fa = value schema nl a and fb = value schema nl b in
    let f =
      match op with
      | Add -> Value.add
      | Sub -> Value.sub
      | Mul -> Value.mul
      | Div -> Value.div
    in
    fun l r -> f (fa l r) (fb l r)

let compile schema expr =
  let f = value schema (Array.length schema) expr in
  fun t -> f t t

let eval_pred schema expr =
  let f = compile schema expr in
  fun t -> match f t with Value.Bool b -> b | _ -> false

(* Typed two-valued tests: true exactly when the three-valued result is
   TRUE, so a NULL or FALSE result reads false. A comparison is true
   when neither side is NULL and [Value.compare] agrees with its
   operator; [And] and [Or] are TRUE exactly when [&&] and [||] of
   their sides' tests are. [Not] is not: NOT of a NULL result is NULL,
   so it keeps the three-valued evaluator, and so do bare values and
   arithmetic. *)

let holds op va vb =
  (not (Value.is_null va)) && (not (Value.is_null vb)) && sign_holds op (Value.compare va vb)

(* The cell at position [j] of the left row when [on_left], else of
   the right row. *)
let[@inline] cell on_left j (l : Tuple.t) (r : Tuple.t) = if on_left then l.(j) else r.(j)

(* [column op k]. An [Int] constant compares an [Int] cell directly
   with [Int.compare], as [Value.compare] does; every other cell, and
   every other constant, goes through [Value.compare]. *)
let column_const op on_left j k =
  match k with
  | Value.Null -> fun _ _ -> false
  | Value.Int n ->
    fun l r ->
      (match cell on_left j l r with
       | Value.Int x -> sign_holds op (Int.compare x n)
       | v -> holds op v k)
  | Value.Float _ | Value.Str _ | Value.Bool _ -> fun l r -> holds op (cell on_left j l r) k

let column_column op al aj bl bj =
  fun l r ->
    let va = cell al aj l r and vb = cell bl bj l r in
    match va, vb with
    | Value.Int x, Value.Int y -> sign_holds op (Int.compare x y)
    | _ -> holds op va vb

let rec pair_test schema nl e : Tuple.t -> Tuple.t -> bool =
  let slot c =
    let i = Schema.index_of schema c in
    if i < nl then (true, i) else (false, i - nl)
  in
  match e with
  | And (a, b) ->
    let fa = pair_test schema nl a and fb = pair_test schema nl b in
    fun l r -> fa l r && fb l r
  | Or (a, b) ->
    let fa = pair_test schema nl a and fb = pair_test schema nl b in
    fun l r -> fa l r || fb l r
  | Cmp (op, Col c, Const k) ->
    let on_left, j = slot c in
    column_const op on_left j k
  | Cmp (op, Const k, Col c) ->
    let on_left, j = slot c in
    column_const (flip op) on_left j k
  | Cmp (op, Col a, Col b) ->
    let al, aj = slot a and bl, bj = slot b in
    column_column op al aj bl bj
  | Cmp (op, a, b) ->
    let fa = value schema nl a and fb = value schema nl b in
    fun l r -> holds op (fa l r) (fb l r)
  | Const (Value.Bool b) -> fun _ _ -> b (* a join's [true_] residual *)
  | Col _ | Const _ | Not _ | Arith _ ->
    let f = value schema nl e in
    fun l r -> (match f l r with Value.Bool true -> true | _ -> false)

let test schema expr =
  let f = pair_test schema (Array.length schema) expr in
  fun t -> f t t

let test_pair ~left ~right expr = pair_test (Schema.concat left right) (Array.length left) expr

let equal (a : t) (b : t) = a = b

let hash (e : t) = Hashtbl.hash e

let cmp_symbol = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let arith_symbol = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

(* Rendered straight into one buffer, not through [Format] (whose
   per-call state costs hundreds of words): plan-cache fingerprints
   render expressions on every request, and operator and algorithm
   names, which embed predicates, are built by EXPLAIN and the search
   profiler. *)
let to_string e =
  let b = Buffer.create 64 in
  let add = Buffer.add_string b in
  let rec go = function
    | Col c -> add c
    | Const v -> add (Value.to_string v)
    | Cmp (op, x, y) -> infix x (cmp_symbol op) y
    | And (x, y) -> infix x "AND" y
    | Or (x, y) ->
      add "(";
      go x;
      add " OR ";
      go y;
      add ")"
    | Not x ->
      add "NOT ";
      atom x
    | Arith (op, x, y) -> infix x (arith_symbol op) y
  and infix x sym y =
    atom x;
    add " ";
    add sym;
    add " ";
    atom y
  and atom e =
    match e with
    | Col _ | Const _ -> go e
    | Cmp _ | And _ | Or _ | Not _ | Arith _ ->
      add "(";
      go e;
      add ")"
  in
  go e;
  Buffer.contents b

let pp ppf e = Format.pp_print_string ppf (to_string e)
