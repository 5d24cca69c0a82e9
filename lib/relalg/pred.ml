(* Bitsets over column ids: [Sys.int_size] bits a word, and words past
   the end of an array read as zero. *)

let word = Sys.int_size

let get bits k = if k < Array.length bits then bits.(k) else 0

let mem bits i = get bits (i / word) land (1 lsl (i mod word)) <> 0

let of_ids ids =
  let bits = Array.make (List.fold_left (fun m i -> max m ((i / word) + 1)) 0 ids) 0 in
  List.iter (fun i -> bits.(i / word) <- bits.(i / word) lor (1 lsl (i mod word))) ids;
  bits

let rec subset_from a b k = k < 0 || (a.(k) land lnot (get b k) = 0 && subset_from a b (k - 1))

let subset a b = subset_from a b (Array.length a - 1)

(* A column name, interned. An unqualified name shares its [base] with
   every qualified name that ends in it, which is where
   {!Schema.find_index} looks when no column carries the name itself. *)
type name = {
  nid : int;
  str : string;
  dotted : bool;
  base : base;
}

and base = { mutable members : name list  (** the qualified names [_.str] *) }

type conj = {
  cid : int;
  cexpr : Expr.t;
  reads : int array;  (** the qualified names it reads *)
  loose : name list;  (** the unqualified names it reads *)
  eq : (name * name) option;  (** [Some (a, b)] for [a = b] over two columns *)
}

and t = {
  pid : int;
  pexpr : Expr.t;
  conjs : conj list;
  mutable keyed : (colset * colset * (string * string) list) list;
      (** {!equijoin_keys} by the column sets, compared with [==]: the
          last [keyed_max] pairs asked about *)
}

and colset = {
  bits : int array;
  dups : int array;  (** columns the schema holds more than once *)
}

let unresolved = { nid = -1; str = ""; dotted = true; base = { members = [] } }

let no_columns = { bits = [||]; dups = [||] }

(* The column an unqualified name denotes in [s] through its base name:
   the one member of [base] that [s] holds, and holds once. *)
let unique_member s base =
  match List.filter (fun n -> mem s.bits n.nid) base.members with
  | [ n ] when not (mem s.dups n.nid) -> n
  | _ -> unresolved

(* {!Schema.find_index} on a column set: the column [n] denotes in [s],
   or [unresolved]. *)
let resolve s n =
  if mem s.bits n.nid then n else if n.dotted then unresolved else unique_member s n.base

let conj_expr c = c.cexpr

let id p = p.pid

let expr p = p.pexpr

let conjuncts p = p.conjs

(* Conjuncts are keyed as [Expr.conjoin] dedupes them, by [compare];
   predicates as the memo compared operators before interning, by [=]. *)
module Ordered = Hashtbl.Make (struct
  type t = Expr.t

  let equal (a : t) b = compare a b = 0

  let hash = Hashtbl.hash
end)

module Structural = Hashtbl.Make (struct
  type t = Expr.t

  let equal (a : t) b = a = b

  let hash = Hashtbl.hash
end)

(* Conjunctions by their conjuncts in id order. *)
module Conj_list = Hashtbl.Make (struct
  type t = conj list

  let equal = List.equal ( == )

  let hash l = List.fold_left (fun h c -> (h * 65599) + c.cid) 0 l land max_int
end)

type table = {
  names : (string, name) Hashtbl.t;
  bases : (string, base) Hashtbl.t;
  mutable n_names : int;
  conj_index : conj Ordered.t;
  mutable n_conjs : int;
  by_expr : t Structural.t;
  by_conjs : t Conj_list.t;
  mutable n_preds : int;
}

let create () =
  {
    names = Hashtbl.create 16;
    bases = Hashtbl.create 16;
    n_names = 0;
    conj_index = Ordered.create 16;
    n_conjs = 0;
    by_expr = Structural.create 16;
    by_conjs = Conj_list.create 16;
    n_preds = 0;
  }

let base_cell tbl b =
  match Hashtbl.find_opt tbl.bases b with
  | Some c -> c
  | None ->
    let c = { members = [] } in
    Hashtbl.add tbl.bases b c;
    c

let name tbl s =
  match Hashtbl.find_opt tbl.names s with
  | Some n -> n
  | None ->
    let nid = tbl.n_names in
    tbl.n_names <- nid + 1;
    let n =
      if String.contains s '.' then begin
        let n = { nid; str = s; dotted = true; base = unresolved.base } in
        let cell = base_cell tbl (Schema.base_name s) in
        cell.members <- n :: cell.members;
        n
      end
      else { nid; str = s; dotted = false; base = base_cell tbl s }
    in
    Hashtbl.add tbl.names s n;
    n

let conj tbl e =
  match Ordered.find_opt tbl.conj_index e with
  | Some c -> c
  | None ->
    let names = List.map (name tbl) (Expr.columns e) in
    let c =
      {
        cid = tbl.n_conjs;
        cexpr = e;
        reads = of_ids (List.filter_map (fun n -> if n.dotted then Some n.nid else None) names);
        loose = List.filter (fun n -> not n.dotted) names;
        eq =
          (match e with
           | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b) -> Some (name tbl a, name tbl b)
           | _ -> None);
      }
    in
    Ordered.add tbl.conj_index e c;
    tbl.n_conjs <- tbl.n_conjs + 1;
    c

let fresh tbl e conjs =
  let p = { pid = tbl.n_preds; pexpr = e; conjs; keyed = [] } in
  tbl.n_preds <- tbl.n_preds + 1;
  Structural.add tbl.by_expr e p;
  p

(* [c] placed in the id-ordered [l], unless [l] holds it already. *)
let rec insert c = function
  | [] -> [ c ]
  | d :: rest as l -> if c.cid < d.cid then c :: l else if c == d then l else d :: insert c rest

let key_of conjs = List.fold_left (fun acc c -> insert c acc) [] conjs

(* An expression that [Expr.conjoin] would build from its own conjuncts
   is also found by them, so {!conjoin} returns the same value. *)
let of_expr tbl e =
  match Structural.find_opt tbl.by_expr e with
  | Some p -> p
  | None ->
    let conjs = List.map (conj tbl) (Expr.conjuncts e) in
    let p = fresh tbl e conjs in
    if Expr.equal (Expr.conjoin (Expr.conjuncts e)) e then
      Conj_list.replace tbl.by_conjs (key_of conjs) p;
    p

(* The conjunction of the conjuncts [key], in id order without
   repeats. A new one is built by [Expr.conjoin], so it keeps the
   structural [compare] order of its conjuncts; a known one is found
   by ids alone. *)
let of_key tbl key =
  match Conj_list.find tbl.by_conjs key with
  | p -> p
  | exception Not_found ->
    let e = Expr.conjoin (List.map (fun c -> c.cexpr) key) in
    let p =
      match Structural.find_opt tbl.by_expr e with
      | Some p -> p
      | None -> fresh tbl e (List.map (conj tbl) (Expr.conjuncts e))
    in
    Conj_list.replace tbl.by_conjs key p;
    p

let conjoin tbl cs = of_key tbl (key_of cs)

let colset tbl (schema : Schema.t) =
  let ids = Array.map (fun (a : Schema.attribute) -> (name tbl a.name).nid) schema in
  let n = Array.fold_left (fun m i -> max m ((i / word) + 1)) 0 ids in
  let bits = Array.make n 0 and dups = Array.make n 0 in
  Array.iter
    (fun i ->
      let k = i / word and b = 1 lsl (i mod word) in
      if bits.(k) land b <> 0 then dups.(k) <- dups.(k) lor b else bits.(k) <- bits.(k) lor b)
    ids;
  { bits; dups }

let concat a b =
  let n = max (Array.length a.bits) (Array.length b.bits) in
  let bits = Array.make n 0 and dups = Array.make n 0 in
  for k = 0 to n - 1 do
    let x = get a.bits k and y = get b.bits k in
    bits.(k) <- x lor y;
    dups.(k) <- get a.dups k lor get b.dups k lor (x land y)
  done;
  { bits; dups }

let rec all_resolve s = function
  | [] -> true
  | n :: rest -> resolve s n != unresolved && all_resolve s rest

let refers_only_to s c = subset c.reads s.bits && all_resolve s c.loose

let rec split_into s out inside = function
  | [] -> (out, inside)
  | c :: rest ->
    if refers_only_to s c then split_into s out (insert c inside) rest
    else split_into s (insert c out) inside rest

let split tbl s l1 l2 =
  let out, inside = split_into s [] [] l1 in
  let out, inside = split_into s out inside l2 in
  (of_key tbl out, of_key tbl inside)

let keys_of p ~left ~right =
  List.filter_map
    (fun c ->
      match c.eq with
      | None -> None
      | Some (a, b) ->
        let la = resolve left a and ra = resolve right a in
        let lb = resolve left b and rb = resolve right b in
        if la != unresolved && rb != unresolved && ra == unresolved && lb == unresolved then
          Some (la.str, rb.str)
        else if lb != unresolved && ra != unresolved && rb == unresolved && la == unresolved
        then Some (lb.str, ra.str)
        else None)
    p.conjs

(* A memo asks for the keys of one join between the same two classes
   once per goal, and join commutativity asks with the sides swapped. *)
let keyed_max = 4

let rec cached left right = function
  | [] -> None
  | (l, r, keys) :: rest -> if l == left && r == right then Some keys else cached left right rest

let equijoin_keys p ~left ~right =
  match cached left right p.keyed with
  | Some keys -> keys
  | None ->
    let keys = keys_of p ~left ~right in
    p.keyed <- (left, right, keys) :: List.filteri (fun i _ -> i < keyed_max - 1) p.keyed;
    keys
