(** The relational model specification: the input an optimizer
    implementor hands to the Volcano optimizer generator (paper §2.2).
    [make] assembles the ten specification items — operators,
    transformation rules, algorithms and enforcers, implementation
    rules, and the cost/property ADT functions — into a [MODEL] module;
    applying {!Volcano.Search.Make} to the result is the generation
    step. *)

module type REL_MODEL =
  Volcano.Signatures.MODEL
    with type op = Relalg.Logical.op
     and type alg = Relalg.Physical.alg
     and type logical_props = Relalg.Logical_props.t
     and type phys_props = Relalg.Phys_prop.t
     and type cost = Relalg.Cost.t

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

val to_tree : Relalg.Logical.expr -> Relalg.Logical.op Volcano.Tree.t
(** Convert a logical expression into the generic operator-tree form the
    search engine consumes. *)
