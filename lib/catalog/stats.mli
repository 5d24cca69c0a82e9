(** Column statistics backing selectivity estimation: the row count,
    and per column the distinct count and min/max bounds, built from
    the data. These are exactly what the estimator reads, through a
    table's base properties ([Catalog.base_props]) and [Selectivity]. *)

type column_stats = {
  n_distinct : float;
  min_value : Relalg.Value.t option;  (** [None] when all values are null *)
  max_value : Relalg.Value.t option;
}

type t = {
  row_count : float;
  columns : (string * column_stats) list;  (** keyed by qualified column name *)
}

val of_tuples : Relalg.Schema.t -> Relalg.Tuple.t array -> t
(** Scan the data once per column and build full statistics. The scan
    builds no lists and sorts nothing. For each column, [Null]s are
    ignored:
    - [n_distinct] counts values distinct under {!Relalg.Value.equal}, so
      [Int 1] and [Float 1.] are one value;
    - [min_value] is the first least value in row order ({!Relalg.Value.compare}),
      and [max_value] the last greatest: of [Int 1] and a later
      [Float 1.], the minimum is [Int 1] and the maximum [Float 1.].
      These are the ends of the values sorted stably. *)

val column : t -> string -> column_stats option

val with_row_count : t -> float -> t
(** [with_row_count t rows] claims [max 1 rows] rows, clamping every
    column's [n_distinct] into [1, rows] (more rows reveal no new values
    we could know about); the bounds are kept. *)
