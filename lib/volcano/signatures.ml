(** The model specification interface: everything an optimizer
    implementor supplies to the generator (the ten items enumerated at
    the end of paper §2.2). Applying {!Search.Make} to a [MODEL] is this
    reproduction's equivalent of running the generator: the rule set is
    compiled (into closures over variant constructors rather than into
    C with string-to-integer translation), and the resulting module is
    the generated optimizer, sharing the common search engine. *)

module type MODEL = sig
  val model_name : string

  (** {1 Logical algebra} — item (1) *)

  type op

  val op_arity : op -> int

  val op_equal : op -> op -> bool

  val op_hash : op -> int

  val op_name : op -> string

  (** {1 Physical algebra: algorithms and enforcers} — item (3) *)

  type alg
  (** The search profiler keys enforcer attribution by algorithm
      value under polymorphic hashing and equality, so the algorithms
      {!enforcers} returns must be plain data, holding no functions. *)

  val alg_arity : alg -> int

  val alg_name : alg -> string
  (** A function of the value alone: equal algorithms have equal
      names. *)

  (** {1 ADT "logical properties"} — item (6), with the property
      function for logical operators from item (10); selectivity
      estimation is encapsulated here (§2.2). *)

  type logical_props

  val derive : op -> logical_props list -> logical_props
  (** Logical properties of an operator's output from its inputs'.
      Deterministic per equivalence class: any expression in a class
      must derive the same properties. *)

  (** {1 ADT "physical property vector"} — item (7) *)

  type phys_props

  val pp_equal : phys_props -> phys_props -> bool

  val pp_hash : phys_props -> int

  val pp_covers : provided:phys_props -> required:phys_props -> bool
  (** The "cover" comparison: data with [provided] properties also
      satisfies [required]. Must be reflexive and transitive. *)

  val pp_to_string : phys_props -> string

  (** {1 ADT "cost"} — item (5) *)

  type cost

  val cost_zero : cost

  val cost_infinite : cost

  val cost_is_infinite : cost -> bool

  val cost_add : cost -> cost -> cost

  val cost_sub : cost -> cost -> cost
  (** For limit propagation in branch-and-bound (Figure 2:
      [Limit - TotalCost]). *)

  val cost_compare : cost -> cost -> int

  val cost_to_string : cost -> string

  (** {1 Support functions} — items (8), (9), (10) *)

  val cost_of :
    alg ->
    inputs:logical_props list ->
    input_props:phys_props list ->
    output:logical_props ->
    cost
  (** Cost function for each algorithm and enforcer: the local cost of
      one execution, excluding input costs. [input_props] are the
      physical property vectors the inputs will be optimized to
      provide — the paper allows cost to depend on physical context
      (e.g. partitioned execution divides work across workers). *)

  val deliver : alg -> phys_props list -> phys_props
  (** Property function for algorithms and enforcers: the physical
      properties of the output, given the properties the inputs will be
      optimized to provide. *)

  val cost_lower_bound : logical_props -> phys_props -> cost
  (** Guided pruning: a lower bound on the cost of {e any} plan that
      delivers [required] for an expression with these logical
      properties. The search engine subtracts sibling bounds from
      branch-and-bound input limits and kills goals whose bound already
      exceeds their limit, so the bound must be {e true}: if some plan
      of cost [c] exists, then [cost_lower_bound props required <= c].
      An unsound bound silently changes winners. [cost_zero] is always
      sound (and disables guided pruning for the model). The engine
      caches the result per (group, required-property key) in the memo,
      so the function may do real work (e.g. catalog lookups). *)

  (** {1 Rules} — items (2) and (4) *)

  val transforms : (op, logical_props) Rule.transform list

  val implementations : (op, alg, logical_props, phys_props) Rule.implement list

  val enforcers :
    props:logical_props -> required:phys_props -> (alg * phys_props * phys_props) list
  (** Enforcer moves for a required property vector, given the logical
      properties of the expression being optimized (so the model can
      refuse orders over columns the schema does not contain): each is
      [(enforcer, relaxed, excluded)] where [relaxed] is the requirement
      passed down to the enforcer's input and [excluded] is the
      excluding physical property vector (§3) that suppresses
      algorithms already able to satisfy what the enforcer establishes.
      Must return [[]] when [required] is trivial, or enforcer
      recursion would not terminate. *)
end
