type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | (Null | Bool _ | Int _ | Float _ | Str _), _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Integers of magnitude below 2^53 convert to floats exactly. *)
let exact = 1 lsl 53

let hash = function
  | Null -> 17
  | Bool b -> if b then 31 else 37
  | Int i ->
    (* [compare] sees a larger integer as the float it rounds to, so
       hash it as that float. *)
    if i > -exact && i < exact then Hashtbl.hash i else Hashtbl.hash (float_of_int i)
  | Float f ->
    (* Hash floats that are exact integers like the integer, so that
       mixed-type equality (compare) stays consistent with hash. *)
    if Float.is_integer f && Float.abs f < float_of_int exact then Hashtbl.hash (int_of_float f)
    else Hashtbl.hash f
  | Str s -> Hashtbl.hash s

let is_null = function Null -> true | Bool _ | Int _ | Float _ | Str _ -> false

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | Bool _ | Str _ -> None

let arith name int_op float_op a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (int_op x y)
  | (Int _ | Float _), (Int _ | Float _) ->
    (match to_float a, to_float b with
     | Some x, Some y -> Float (float_op x y)
     | _, _ -> assert false)
  | (Bool _ | Str _), _ | _, (Bool _ | Str _) ->
    invalid_arg (Printf.sprintf "Value.%s: non-numeric operand" name)

let add a b = arith "add" ( + ) ( +. ) a b
let sub a b = arith "sub" ( - ) ( -. ) a b
let mul a b = arith "mul" ( * ) ( *. ) a b

let div a b =
  match a, b with
  | _, Int 0 -> Null
  | _, Float 0. -> Null
  | _, _ -> arith "div" ( / ) ( /. ) a b

let to_string = function
  | Null -> "NULL"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> Printf.sprintf "%S" s

let pp ppf v = Format.pp_print_string ppf (to_string v)
