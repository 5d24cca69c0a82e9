(** The physical algebra: algorithms and enforcers from which query
    evaluation plans are composed (paper §2.2). Algorithms implement
    logical operators; enforcers ([Sort], [Hash_dedup]) perform no
    logical data manipulation but establish physical properties. *)

type alg =
  | Table_scan of string
  | Index_scan of string * string list * Expr.t
      (** [Index_scan (table, key columns, range predicate)]: deliver the
          qualifying rows in index-key order — the paper's facility of
          mapping multiple logical operators (a selection over a get)
          onto one physical operator *)
  | Filter of Expr.t
  | Project_cols of string list
  | Nested_loop_join of Expr.t
  | Merge_join of (string * string) list * Expr.t
      (** equi-keys (left col, right col) driving the merge, plus the
          full join predicate (evaluated as residual) *)
  | Hash_join of (string * string) list * Expr.t
  | Hash_join_project of (string * string) list * Expr.t * string list
      (** hash join emitting only the given columns — "a join followed
          by a projection ... implemented in a single procedure"
          (paper §2.2) *)
  | Sort of Sort_order.t  (** enforcer: establishes [order] *)
  | Hash_dedup  (** enforcer: establishes [distinct], destroys [order] *)
  | Sort_dedup of Sort_order.t
      (** enforcer establishing two properties at once (paper §2.2):
          sort-based duplicate removal delivers [order] and [distinct] *)
  | Repartition of string list
      (** exchange enforcer: hash-partition the stream on these columns
          across the workers; destroys sort order *)
  | Gather
      (** exchange enforcer: bring all partitions to one site; destroys
          sort order *)
  | Merge_gather of Sort_order.t
      (** order-preserving exchange: merge sorted partitions into one
          sorted stream at one site *)
  | Merge_union
  | Hash_union
  | Merge_intersect
  | Hash_intersect
  | Merge_difference
  | Hash_difference
  | Stream_aggregate of string list * Logical.agg list
      (** requires input sorted by the grouping keys *)
  | Hash_aggregate of string list * Logical.agg list
  | Materialize of string
      (** multi-query sharing: write the input stream once to the named
          temporary, passing the tuples through unchanged; consumers read
          it back with [Scan_materialized] *)
  | Scan_materialized of string
      (** read a result previously written by [Materialize]; costs like a
          scan of the (usually small) shared intermediate instead of
          recomputing it *)

type plan = {
  alg : alg;
  children : plan list;
}

val arity : alg -> int

val mk : alg -> plan list -> plan
(** @raise Invalid_argument on an arity mismatch. *)

val is_enforcer : alg -> bool

val alg_name : alg -> string

val size : plan -> int

val pp : Format.formatter -> plan -> unit
(** Multi-line indented tree rendering (EXPLAIN-style). *)

val to_string : plan -> string
