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

let rec refers_only_to schema = function
  | Col c -> Schema.mem schema c
  | Const _ -> true
  | Not e -> refers_only_to schema e
  | Cmp (_, a, b) | And (a, b) | Or (a, b) | Arith (_, a, b) ->
    refers_only_to schema a && refers_only_to schema b

(* The key pair of conjunct [a = b] when one column resolves on each
   side only; each column is resolved once against each side. *)
let key_pair ~left ~right a b =
  let la = Schema.find_index left a and ra = Schema.find_index right a in
  let lb = Schema.find_index left b and rb = Schema.find_index right b in
  if la >= 0 && rb >= 0 && ra < 0 && lb < 0 then
    Some (left.(la).Schema.name, right.(rb).Schema.name)
  else if lb >= 0 && ra >= 0 && rb < 0 && la < 0 then
    Some (left.(lb).Schema.name, right.(ra).Schema.name)
  else None

let rec add_keys ~left ~right acc = function
  | And (a, b) -> add_keys ~left ~right (add_keys ~left ~right acc a) b
  | Cmp (Eq, Col a, Col b) -> begin
    match key_pair ~left ~right a b with
    | Some k -> k :: acc
    | None -> acc
  end
  | _ -> acc

let equijoin_keys expr ~left ~right = List.rev (add_keys ~left ~right [] expr)

(* The comparison as a test on [Value.compare]'s result, chosen once
   when a predicate is compiled. *)
let cmp_test = function
  | Eq -> fun c -> c = 0
  | Ne -> fun c -> c <> 0
  | Lt -> fun c -> c < 0
  | Le -> fun c -> c <= 0
  | Gt -> fun c -> c > 0
  | Ge -> fun c -> c >= 0

(* Predicate results are these two shared constants, so evaluating a
   comparison allocates nothing. *)
let vtrue = Value.Bool true
let vfalse = Value.Bool false

let compile schema expr =
  (* Resolve all columns up-front so evaluation is a pure array walk. *)
  let rec build = function
    | Col c ->
      let i = Schema.index_of schema c in
      fun (t : Tuple.t) -> t.(i)
    | Const v -> fun _ -> v
    | Cmp (op, a, b) ->
      let fa = build a and fb = build b in
      let test = cmp_test op in
      fun t ->
        let va = fa t and vb = fb t in
        if Value.is_null va || Value.is_null vb then Value.Null
        else if test (Value.compare va vb) then vtrue
        else vfalse
    | And (a, b) ->
      let fa = build a and fb = build b in
      fun t ->
        (match fa t with
         | Value.Bool false -> vfalse
         | Value.Bool true -> fb t
         | _ -> (match fb t with Value.Bool false -> vfalse | _ -> Value.Null))
    | Or (a, b) ->
      let fa = build a and fb = build b in
      fun t ->
        (match fa t with
         | Value.Bool true -> vtrue
         | Value.Bool false -> fb t
         | _ -> (match fb t with Value.Bool true -> vtrue | _ -> Value.Null))
    | Not e ->
      let f = build e in
      fun t ->
        (match f t with
         | Value.Bool true -> vfalse
         | Value.Bool false -> vtrue
         | _ -> Value.Null)
    | Arith (op, a, b) ->
      let fa = build a and fb = build b in
      let f =
        match op with
        | Add -> Value.add
        | Sub -> Value.sub
        | Mul -> Value.mul
        | Div -> Value.div
      in
      fun t -> f (fa t) (fb t)
  in
  build expr

let eval_pred schema expr =
  let f = compile schema expr in
  fun t -> match f t with Value.Bool b -> b | _ -> false

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
