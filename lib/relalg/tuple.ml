type t = Value.t array

let get t i = t.(i)

let concat = Array.append

let project schema columns t =
  let indexes = List.map (Schema.index_of schema) columns in
  Array.of_list (List.map (fun i -> t.(i)) indexes)

let compare_by schema keys =
  (* Resolve the columns and directions once; the returned comparator
     is a loop over arrays. *)
  let idx = Array.of_list (List.map (fun (col, _) -> Schema.index_of schema col) keys) in
  let desc = Array.of_list (List.map (fun (_, dir) -> dir = `Desc) keys) in
  let n = Array.length idx in
  fun (a : t) (b : t) ->
    let rec go k =
      if k >= n then 0
      else begin
        let i = idx.(k) in
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then if desc.(k) then -c else c else go (k + 1)
      end
    in
    go 0

let equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 t

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Value.pp)
    (Array.to_list t)
