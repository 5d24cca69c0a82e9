type t = Value.t array

let get t i = t.(i)

let concat = Array.append

let project schema columns t =
  let indexes = List.map (Schema.index_of schema) columns in
  Array.of_list (List.map (fun i -> t.(i)) indexes)

(* The comparison from key [k] on. A top-level function with no free
   variables: a call allocates nothing, where a local [let rec] over
   [a] and [b] would build a closure on every comparison. *)
let rec compare_keys idx desc n k (a : t) (b : t) =
  if k >= n then 0
  else begin
    let i = idx.(k) in
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then if desc.(k) then -c else c else compare_keys idx desc n (k + 1) a b
  end

let compare_by schema keys =
  (* Resolve the columns and directions once; the returned comparator
     is a loop over arrays. *)
  let idx = Array.of_list (List.map (fun (col, _) -> Schema.index_of schema col) keys) in
  let desc = Array.of_list (List.map (fun (_, dir) -> dir = `Desc) keys) in
  let n = Array.length idx in
  fun (a : t) (b : t) -> compare_keys idx desc n 0 a b

let equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 t

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Value.pp)
    (Array.to_list t)
