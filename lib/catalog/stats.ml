type column_stats = {
  n_distinct : float;
  min_value : Relalg.Value.t option;
  max_value : Relalg.Value.t option;
}

type t = {
  row_count : float;
  columns : (string * column_stats) list;
}

module Value = Relalg.Value

module Value_set = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Column [i] in one pass over the rows. [distinct] is a scratch set
   shared by the columns of one table. The results equal those of
   sorting the non-null values with [Value.compare] (stable): the
   minimum is the first of the least values in input order, the maximum
   the last of the greatest. *)
let column_stats distinct tuples i =
  Value_set.clear distinct;
  (* [Null] stands for "no value yet": nulls never reach the min/max. *)
  let min_value = ref Value.Null in
  let max_value = ref Value.Null in
  for r = 0 to Array.length tuples - 1 do
    match tuples.(r).(i) with
    | Value.Null -> ()
    | v ->
      let first = Value.is_null !min_value in
      Value_set.replace distinct v ();
      if first || Value.compare v !min_value < 0 then min_value := v;
      if first || Value.compare v !max_value >= 0 then max_value := v
  done;
  let bound v = if Value.is_null v then None else Some v in
  {
    n_distinct = Float.of_int (Value_set.length distinct);
    min_value = bound !min_value;
    max_value = bound !max_value;
  }

let of_tuples schema tuples =
  let distinct = Value_set.create (Array.length tuples) in
  let columns =
    List.init (Array.length schema) (fun i ->
        (schema.(i).Relalg.Schema.name, column_stats distinct tuples i))
  in
  { row_count = Float.of_int (Array.length tuples); columns }

let column t name = List.assoc_opt name t.columns

let with_row_count t rows =
  let rows = Float.max 1. rows in
  {
    row_count = rows;
    columns =
      List.map
        (fun (c, cs) -> (c, { cs with n_distinct = Float.max 1. (Float.min cs.n_distinct rows) }))
        t.columns;
  }
