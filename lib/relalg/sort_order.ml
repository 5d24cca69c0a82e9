type dir =
  | Asc
  | Desc

type t = (string * dir) list

let asc cols = List.map (fun c -> (c, Asc)) cols

let key_equal (c1, d1) (c2, d2) = String.equal c1 c2 && d1 = d2

let rec covers ~provided ~required =
  match required, provided with
  | [], _ -> true
  | _ :: _, [] -> false
  | r :: rs, p :: ps -> key_equal r p && covers ~provided:ps ~required:rs

let equal a b = List.length a = List.length b && List.for_all2 key_equal a b

let columns t = List.map fst t

let compare_tuples schema order =
  Tuple.compare_by schema
    (List.map (fun (c, d) -> (c, match d with Asc -> `Asc | Desc -> `Desc)) order)

let is_sorted schema order tuples =
  let n = Array.length tuples in
  n < 2
  ||
  let cmp = compare_tuples schema order in
  let rec go i = i >= n - 1 || (cmp tuples.(i) tuples.(i + 1) <= 0 && go (i + 1)) in
  go 0

let to_string = function
  | [] -> "any"
  | t ->
    String.concat ", "
      (List.map (fun (c, d) -> match d with Asc -> c | Desc -> c ^ " desc") t)

let pp ppf t = Format.pp_print_string ppf (to_string t)
