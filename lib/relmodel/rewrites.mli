(** Predicate bookkeeping shared by the Volcano rule set and the EXODUS
    baseline: how join predicates are redistributed when joins are
    reassociated and selections pushed into them. Conjuncts are placed
    by the column sets of the inputs ({!Relalg.Pred.refers_only_to}),
    which must come from the table that interned the predicates. *)

val assoc_split :
  Relalg.Pred.table ->
  p1:Relalg.Pred.t ->
  p2:Relalg.Pred.t ->
  cols_b:Relalg.Pred.colset ->
  cols_c:Relalg.Pred.colset ->
  Relalg.Pred.t * Relalg.Pred.t
(** For JOIN(p1, JOIN(p2, A, B), C) == JOIN(top, A, JOIN(bottom, B, C)):
    partition the conjuncts of [p1 AND p2] into those referring only to
    B's and C's columns ([bottom]) and the rest ([top]); returns
    [(top, bottom)]. *)

val push_split :
  Relalg.Pred.t ->
  left:Relalg.Pred.colset ->
  right:Relalg.Pred.colset ->
  Relalg.Pred.conj list * Relalg.Pred.conj list * Relalg.Pred.conj list
(** For SELECT(p, JOIN(jp, A, B)): the conjuncts of [p] referring only
    to A's columns, those referring only to B's (of the rest), and the
    rest, which join [jp]; each in [p]'s order. *)
