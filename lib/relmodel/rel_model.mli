(** The relational model specification: the input an optimizer
    implementor hands to the Volcano optimizer generator (paper §2.2).
    [make] assembles the ten specification items — operators,
    transformation rules, algorithms and enforcers, implementation
    rules, and the cost/property ADT functions — into a [MODEL] module;
    applying {!Volcano.Search.Make} to the result is the generation
    step. *)

(** A logical operator interned in one model instance (one optimizer
    session): equal operators are the same value, so the memo hashes
    [op_id] and compares with [==]. *)
type op = private {
  op_id : int;  (** dense per model instance *)
  logical : Relalg.Logical.op;
  pred : Relalg.Pred.t;
      (** the [Select] or [Join] predicate, interned in the instance's
          predicate table; [true_] for the other operators *)
}

module type REL_MODEL = sig
  include
    Volcano.Signatures.MODEL
      with type op = op
       and type alg = Relalg.Physical.alg
       and type logical_props = Relalg.Logical_props.t
       and type phys_props = Relalg.Phys_prop.t
       and type cost = Relalg.Cost.t

  val intern : Relalg.Logical.op -> op

  val to_tree : Relalg.Logical.expr -> op Volcano.Tree.t
  (** Intern a logical expression's operators into the generic
      operator-tree form the search engine consumes. *)
end

(** Knobs for the ablation experiments (DESIGN.md A3–A5); the default
    is the paper's full configuration. *)
type flags = {
  alternatives : bool;
      (** offer multiple alternative input property vectors for
          merge-based binary operators (§3's intersection example) *)
  left_deep_only : bool;
      (** implementation-rule condition restricting join plans to
          left-deep shape (composite inners rejected) *)
}

val default_flags : flags

val make :
  catalog:Catalog.t ->
  ?params:Relalg.Cost_model.params ->
  ?flags:flags ->
  unit ->
  (module REL_MODEL)
(** A model instance with its own operator and predicate tables: one
    per optimizer session, never shared between domains. *)
