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

let pp ppf t =
  match t with
  | [] -> Format.pp_print_string ppf "any"
  | _ ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
      (fun ppf (c, d) ->
        Format.fprintf ppf "%s%s" c (match d with Asc -> "" | Desc -> " desc"))
      ppf t

let to_string t = Format.asprintf "%a" pp t
