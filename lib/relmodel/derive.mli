(** The property functions for logical operators (paper §2.2, item 10):
    derive the logical properties — schema, cardinality, distinct
    counts — of an operator's output from its inputs'. Selectivity
    estimation is encapsulated here via {!Catalog.Selectivity}. *)

val op :
  Catalog.t ->
  Relalg.Pred.table ->
  Relalg.Logical.op ->
  Relalg.Logical_props.t list ->
  Relalg.Logical_props.t
(** The inputs' properties must have been derived with the same
    predicate table, which interns the operator's predicate and states
    the output's column set.
    @raise Not_found when a [Get] names an unknown relation. *)

val interned :
  Catalog.t ->
  Relalg.Pred.table ->
  Relalg.Logical.op ->
  Relalg.Pred.t ->
  Relalg.Logical_props.t list ->
  Relalg.Logical_props.t
(** {!op} given the operator's interned predicate ([true_] for
    operators without one). *)

val expr : Catalog.t -> Relalg.Logical.expr -> Relalg.Logical_props.t
(** Bottom-up derivation over a whole logical expression tree, with a
    predicate table of its own. *)
