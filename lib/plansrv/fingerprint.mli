(** Query fingerprints: a canonical normal form for logical queries
    hashed into a stable plan-cache key.

    Two queries that the optimizer must treat identically — notably
    commutative variants (swapped inner-join, union, or intersection
    inputs) and reordered conjunctions — receive the same fingerprint.
    The cache therefore stores the plan of the {e canonical} form, and
    every variant is served from it.

    With [parameterize] on, the single numeric literal of a
    column-versus-constant comparison is erased from the key and
    reported as a {!param} slot, so one cached entry (backed by
    {!Dynplan} buckets) serves the whole family of literal values. *)

type t = {
  key : string;
      (** full canonical serialization (query + required properties);
          collision-free by construction *)
  tables : string list;  (** referenced relations, sorted, distinct *)
  param : (string * Relalg.Value.t) option;
      (** [(column, literal)] when the query was parameterized: the
          column the erased literal is compared against, and the
          literal's actual value in this request *)
}

val canonicalize : Relalg.Logical.expr -> Relalg.Logical.expr
(** The canonical normal form: inputs of commutative binary operators
    ordered by their serialization, conjunction/disjunction chains
    flattened and sorted, comparisons oriented column-first. Semantics
    preserving — the optimizer may be handed the canonical form in
    place of the original. *)

val of_query :
  ?parameterize:bool ->
  Relalg.Logical.expr ->
  required:Relalg.Phys_prop.t ->
  t * Relalg.Logical.expr
(** Fingerprint a query under its required physical properties;
    also returns the canonical form (literals intact) that a cache
    miss should optimize. [parameterize] defaults to [false]; it only
    takes effect when the canonical query contains {e exactly one}
    numeric literal compared against a column — otherwise the literal
    stays in the key. *)

val subtrees : Relalg.Logical.expr -> (string * Relalg.Logical.expr) list
(** Per-subtree fingerprint keys for multi-query sharing: canonicalize
    the whole expression, then emit [(key, canonical_subtree)] for every
    node, bottom-up (children strictly before parents). Keys are built
    from child keys, so the walk is near-linear. Two subtrees — from the
    same or different queries — receive equal keys iff their canonical
    forms are equal. *)

val expr_key : Relalg.Logical.expr -> string
(** The canonical serialization of one expression: equal to the key
    {!subtrees} assigns it as a subtree of any enclosing query. *)

val with_parameter :
  Relalg.Logical.expr -> Relalg.Value.t -> Relalg.Logical.expr
(** Replace the unique parameterizable literal (see {!of_query}) with a
    new value: the {!Dynplan.template} of a parameterized cache entry.
    @raise Invalid_argument when the query has no such unique literal. *)
