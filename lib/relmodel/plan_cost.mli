(** Neutral re-costing of finished physical plans. Both optimizers carry
    their own running cost estimates, which can differ slightly for the
    same plan because logical properties are frozen per equivalence
    class at first derivation. For the Figure 4 plan-quality comparison
    the produced plans are re-estimated here, bottom-up over the plan
    itself, so Volcano and EXODUS plans are judged by one estimator. *)

val props :
  Catalog.t -> Relalg.Physical.plan -> Relalg.Logical_props.t
(** Logical properties of a plan node's output, derived bottom-up. *)

val estimate : Catalog.t -> Relalg.Physical.plan -> Relalg.Cost.t
(** Total estimated cost of the plan: sum of each operator's local cost
    under {!Relalg.Cost_model.default}, the one-worker cost model. A
    serial plan costs what the optimizer's default request costs it
    ([suite_relmodel]'s [own == neutral] test pins this). No operator is
    divided among workers, so a plan optimized with [workers > 1] is
    judged as if run on one. *)
