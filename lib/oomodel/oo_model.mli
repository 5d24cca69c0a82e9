(** The object-algebra model specification and its generated optimizer.
    Instantiating {!Volcano.Search.Make} with a second, structurally
    different data model is the paper's data-model-independence claim
    made executable. *)

module type OO_MODEL =
  Volcano.Signatures.MODEL
    with type op = Oo_algebra.op
     and type alg = Oo_algebra.alg
     and type logical_props = Oo_algebra.props
     and type phys_props = Oo_algebra.phys
     and type cost = Relalg.Cost.t

type params = {
  random_io : float;  (** seconds per navigational object fetch *)
  assembly_io : float;
      (** seconds per object fetch through the batching assembly
          operator — its whole point is [assembly_io < random_io] *)
  assembly_setup : float;
      (** fixed cost of one assembly invocation (building the batch
          windows); makes navigation the better choice for small
          inputs *)
  scan_io : float;  (** seconds per object during a sequential extent scan *)
  cpu_test : float;  (** seconds per predicate evaluation *)
}

val make : store:Oo_algebra.store -> ?params:params -> unit -> (module OO_MODEL)

(** A concrete optimized plan, mirroring {!Relmodel.Optimizer}. *)
type plan_node = {
  alg : Oo_algebra.alg;
  children : plan_node list;
  props : Oo_algebra.phys;
  cost : Relalg.Cost.t;
}

type result = {
  plan : plan_node option;
  stats : Volcano.Search_stats.t;
  memo_groups : int;
  memo_mexprs : int;
}

val optimize :
  store:Oo_algebra.store ->
  ?params:params ->
  Oo_algebra.op Volcano.Tree.t ->
  required:Oo_algebra.phys ->
  result
(** Optimize with the engine's default configuration: the paper's
    exhaustive search with branch-and-bound pruning. *)

val explain : plan_node -> string
