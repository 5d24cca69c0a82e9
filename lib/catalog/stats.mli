(** Column statistics backing selectivity estimation: distinct counts,
    min/max bounds, and equi-width histograms built from the data. *)

type column_stats = {
  n_distinct : float;
  null_count : float;
  min_value : Relalg.Value.t option;  (** [None] when all values are null *)
  max_value : Relalg.Value.t option;
  histogram : histogram option;  (** only for numeric columns *)
}

and histogram = {
  lo : float;
  hi : float;
  buckets : float array;  (** tuple counts per equi-width bucket *)
}

type t = {
  row_count : float;
  columns : (string * column_stats) list;  (** keyed by qualified column name *)
}

val of_tuples : Relalg.Schema.t -> Relalg.Tuple.t array -> t
(** Scan the data once per column and build full statistics; a column
    whose non-null values are all numeric ([Int] or [Float]) is read a
    second time to fill its histogram buckets. The scan builds no lists
    and sorts nothing. For each column:
    - [null_count] counts [Null]s, and every other field ignores them;
    - [n_distinct] counts values distinct under {!Relalg.Value.equal}, so
      [Int 1] and [Float 1.] are one value;
    - [min_value] is the first least value in row order ({!Relalg.Value.compare}),
      and [max_value] the last greatest: of [Int 1] and a later
      [Float 1.], the minimum is [Int 1] and the maximum [Float 1.].
      These are the ends of the values sorted stably;
    - the histogram's [lo]/[hi] fold [Float.min]/[Float.max] over the
      values in row order; there is none when the column holds a
      non-numeric value, no value, one number only ([hi <= lo]), or a
      NaN or an infinity (bounds that cover nothing). *)

val column : t -> string -> column_stats option

val histogram_fraction : histogram -> lo:float option -> hi:float option -> float
(** Estimated fraction of rows falling in the (inclusive) numeric
    interval; [None] bounds are unbounded. *)

val pp : Format.formatter -> t -> unit
