type partitioning =
  | Any_part
  | Singleton
  | Hashed of string list

type t = {
  order : Sort_order.t;
  distinct : bool;
  partitioning : partitioning;
}

let any = { order = []; distinct = false; partitioning = Any_part }

let sorted order = { any with order }

let with_distinct t = { t with distinct = true }

let with_partitioning partitioning t = { t with partitioning }

let gathered = { any with partitioning = Singleton }

let partitioning_covers ~provided ~required =
  match required, provided with
  | Any_part, _ -> true
  | Singleton, Singleton -> true
  | Hashed r, Hashed p -> List.length r = List.length p && List.for_all2 String.equal r p
  | (Singleton | Hashed _), _ -> false

let covers ~provided ~required =
  Sort_order.covers ~provided:provided.order ~required:required.order
  && ((not required.distinct) || provided.distinct)
  && partitioning_covers ~provided:provided.partitioning ~required:required.partitioning

let partitioning_equal a b =
  match a, b with
  | Any_part, Any_part | Singleton, Singleton -> true
  | Hashed x, Hashed y -> List.length x = List.length y && List.for_all2 String.equal x y
  | (Any_part | Singleton | Hashed _), _ -> false

let equal a b =
  Sort_order.equal a.order b.order
  && Bool.equal a.distinct b.distinct
  && partitioning_equal a.partitioning b.partitioning

(* Folded field by field: hashing a tuple of the fields would allocate
   the tuple on every goal-key intern. *)
let rec hash_order h = function
  | [] -> h
  | (c, d) :: rest ->
    let dir = match d with Sort_order.Asc -> 0 | Desc -> 1 in
    hash_order ((h * 31) + Hashtbl.hash c + dir) rest

let rec hash_columns h = function
  | [] -> h
  | c :: rest -> hash_columns ((h * 31) + Hashtbl.hash c) rest

let hash t =
  let h = (hash_order 17 t.order * 2) + Bool.to_int t.distinct in
  match t.partitioning with
  | Any_part -> h * 31
  | Singleton -> (h * 31) + 1
  | Hashed cols -> hash_columns ((h * 31) + 2) cols

let partitioning_to_string = function
  (* Singleton is the unremarkable serial case; only real distribution
     is worth printing. *)
  | Any_part | Singleton -> ""
  | Hashed cols -> "; hashed(" ^ String.concat ", " cols ^ ")"

let pp ppf t =
  match t.order, t.distinct, t.partitioning with
  | [], false, (Any_part | Singleton) -> Format.pp_print_string ppf "{any}"
  | [], false, Hashed cols -> Format.fprintf ppf "{hashed(%s)}" (String.concat ", " cols)
  | _, _, _ ->
    Format.fprintf ppf "{order: %a%s%s}" Sort_order.pp t.order
      (if t.distinct then "; distinct" else "")
      (partitioning_to_string t.partitioning)

let to_string t = Format.asprintf "%a" pp t
