(** Rules: the paper's two rule kinds, with patterns matched against the
    memo and condition code folded into the apply functions.

    A {!pattern} describes the operator shape a rule fires on. The
    search engine enumerates {!binding}s — operator trees whose leaves
    are references to memo equivalence classes — matching a pattern,
    then hands each binding to the rule.

    - A {e transformation rule} (algebraic equivalence, §2.2) maps a
      binding to zero or more equivalent logical bindings. Returning
      [[]] is how condition code rejects a match.
    - An {e implementation rule} maps a binding (plus the required
      physical property vector) to algorithm choices. Each choice names
      the algorithm, the memo groups serving as its inputs, and one or
      more {e alternative} input property-vector combinations to try —
      the paper's merge-intersection example (§3). The apply function
      plays the role of the paper's applicability function. *)

type 'op pattern =
  | Any  (** matches any equivalence class (binds a group) *)
  | Op of ('op -> bool) * 'op pattern list
      (** matches an operator satisfying the predicate, with sub-patterns
          for each input *)

type group = int
(** Memo equivalence-class identifier. *)

(** An operator tree matched out of the memo: concrete operators at
    the nodes a pattern descended into, equivalence-class references at
    its [Any] leaves. The currency rules are applied to. *)
type 'op binding =
  | Group of group  (** an [Any] leaf: the whole equivalence class *)
  | Node of 'op * 'op binding list  (** a matched operator and its inputs *)

(** A transformation rule: an algebraic equivalence such as join
    commutativity or associativity (paper Figure 3). *)
type ('op, 'lp) transform = {
  t_name : string;  (** for tracing and diagnostics *)
  t_promise : int;  (** higher fires earlier (§3: "order the set of moves by promise") *)
  t_pattern : 'op pattern;
  t_apply : lookup:(group -> 'lp) -> 'op binding -> 'op binding list;
      (** [lookup] exposes logical properties of bound groups to
          condition code (e.g. schema checks for many-sorted algebras). *)
}

(** One algorithm choice produced by an implementation rule. *)
type ('op, 'alg, 'lp, 'pp) impl_choice = {
  c_alg : 'alg;  (** the physical algorithm *)
  c_inputs : group list;  (** memo groups serving as the algorithm's inputs *)
  c_alternatives : 'pp list list;
      (** each element is one full input-requirement vector: one
          property requirement per input, in input order *)
}

(** An implementation rule: maps a (possibly multi-node) logical
    pattern to algorithm choices for a required property vector. *)
type ('op, 'alg, 'lp, 'pp) implement = {
  i_name : string;  (** for tracing and diagnostics *)
  i_promise : int;  (** higher is pursued earlier, as for transforms *)
  i_pattern : 'op pattern;
  i_apply :
    lookup:(group -> 'lp) ->
    required:'pp ->
    'op binding ->
    ('op, 'alg, 'lp, 'pp) impl_choice list;
}
