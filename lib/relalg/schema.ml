type datatype =
  | TBool
  | TInt
  | TFloat
  | TStr

type attribute = {
  name : string;
  ty : datatype;
  width : int;
}

type t = attribute array

let default_width = function
  | TBool -> 8
  | TInt -> 8
  | TFloat -> 8
  | TStr -> 24

let attribute ?width name ty =
  let width = match width with Some w -> w | None -> default_width ty in
  { name; ty; width }

let qualify table column = table ^ "." ^ column

let base_name name =
  match String.rindex_opt name '.' with
  | None -> name
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)

(* [full] holds [name] from offset [off], compared from [name]'s [k]th byte. *)
let rec same_from full off name k =
  k >= String.length name
  || (Char.equal full.[off + k] name.[k] && same_from full off name (k + 1))

(* [base_name full = name] for a [name] with no dot, compared in place:
   [name] is a suffix of [full] that is all of [full] or follows a dot. *)
let has_base full name =
  let m = String.length full and n = String.length name in
  m >= n && (m = n || Char.equal full.[m - n - 1] '.') && same_from full (m - n) name 0

let rec exact_index schema name i =
  if i >= Array.length schema then -1
  else if String.equal schema.(i).name name then i
  else exact_index schema name (i + 1)

let rec unqualified_index schema name i found =
  if i >= Array.length schema then found
  else if has_base schema.(i).name name then
    if found >= 0 then -1 (* ambiguous *) else unqualified_index schema name (i + 1) i
  else unqualified_index schema name (i + 1) found

let rec has_dot name i =
  i < String.length name && (Char.equal name.[i] '.' || has_dot name (i + 1))

(* A base name has no dot, so a dotted [name] that misses the exact
   scan cannot match any attribute's base name either. *)
let find_index schema name =
  let i = exact_index schema name 0 in
  if i >= 0 || has_dot name 0 then i else unqualified_index schema name 0 (-1)

let index_of schema name =
  let i = find_index schema name in
  if i < 0 then raise Not_found else i

let mem schema name = find_index schema name >= 0

let find schema name = schema.(index_of schema name)

let resolve schema name = (find schema name).name

let concat a b = Array.append a b

let project schema columns =
  Array.of_list (List.map (find schema) columns)

let names schema = Array.to_list (Array.map (fun a -> a.name) schema)

let row_width schema = Array.fold_left (fun acc a -> acc + a.width) 0 schema

let equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> String.equal x.name y.name && x.ty = y.ty) a b

let pp_ty ppf ty =
  Format.pp_print_string ppf
    (match ty with TBool -> "bool" | TInt -> "int" | TFloat -> "float" | TStr -> "str")

let pp ppf schema =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf a -> Format.fprintf ppf "%s:%a" a.name pp_ty a.ty))
    (Array.to_list schema)
