type t = {
  schema : Schema.t;
  card : float;
  row_bytes : int;
  distincts : (string * float) list;
  ranges : (string * (float * float)) list;
  relations : string list;
  grouped : bool;
}

let make ~schema ~card ~distincts ?(ranges = []) ?(relations = []) ?(grouped = false) () =
  {
    schema;
    card = Float.max card 0.;
    row_bytes = Schema.row_width schema;
    distincts;
    ranges;
    relations;
    grouped;
  }

let canonical_name t column =
  let i = Schema.find_index t.schema column in
  if i >= 0 then t.schema.(i).Schema.name else column

let range_of t column = List.assoc_opt (canonical_name t column) t.ranges

let distinct_of t column =
  match List.assoc_opt (canonical_name t column) t.distincts with
  | Some d -> Float.min d t.card
  | None -> t.card

let distinct_raw t column = List.assoc_opt (canonical_name t column) t.distincts

let pages ~page_size t =
  Float.max 1. (Float.of_int t.row_bytes *. t.card /. Float.of_int page_size)

let pp ppf t =
  Format.fprintf ppf "card=%.0f width=%dB %a" t.card t.row_bytes Schema.pp t.schema
