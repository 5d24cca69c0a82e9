(** Predicate bookkeeping shared by the Volcano rule set and the EXODUS
    baseline: how join predicates are redistributed when joins are
    reassociated. *)

val assoc_split :
  p1:Relalg.Expr.t ->
  p2:Relalg.Expr.t ->
  schema_b:Relalg.Schema.t ->
  schema_c:Relalg.Schema.t ->
  Relalg.Expr.t * Relalg.Expr.t
(** For JOIN(p1, JOIN(p2, A, B), C) == JOIN(top, A, JOIN(bottom, B, C)):
    partition the conjuncts of [p1 AND p2] into those referring only to
    B's and C's columns ([bottom]) and the rest ([top]); returns
    [(top, bottom)]. *)

