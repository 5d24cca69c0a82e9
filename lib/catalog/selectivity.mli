(** Selectivity estimation, encapsulated in the logical property
    functions per the paper ("the logical property functions also
    encapsulate selectivity estimation", §2.2). Estimates follow the
    System R conventions: [1/distinct] for equality, range
    interpolation against known bounds, [1/max(d1,d2)] per equi-join
    key. *)

val predicate : Relalg.Logical_props.t -> Relalg.Expr.t -> float
(** Fraction of input tuples satisfying a selection predicate,
    in [0, 1]. *)

val join :
  left:Relalg.Logical_props.t -> right:Relalg.Logical_props.t -> Relalg.Pred.t -> float
(** Fraction of the Cartesian product satisfying a join predicate. The
    inputs' column sets ({!Relalg.Logical_props.colset}) place each
    conjunct, so they must come from the table that interned the
    predicate. *)
