(** Logical properties of an equivalence class: facts derivable from
    any expression in the class, independent of the plan chosen
    (paper §2.2). They encapsulate the schema, cardinality estimate,
    and per-column distinct-value estimates used by selectivity and
    cost functions. *)

type t = {
  schema : Schema.t;
  card : float;  (** estimated output cardinality *)
  row_bytes : int;  (** estimated stored width of one tuple *)
  distincts : (string * float) list;  (** estimated distinct values per column *)
  ranges : (string * (float * float)) list;
      (** known numeric [min, max] per column, for range selectivity *)
  relations : string list;
      (** base relations contributing to this result, for rule condition
          code (e.g. left-deep restrictions, predicate placement) *)
  grouped : bool;
      (** whether any aggregation (group-by) contributed to this result.
          Cost lower bounds consult this: an aggregate can deliver its
          key order without a sort, so sort-cost floors must not be
          asserted over grouped expressions. *)
  colset : Pred.colset;
      (** the schema's columns in the deriving session's {!Pred.table}
          ({!Pred.no_columns} when no session derived these
          properties), for name-free predicate placement *)
}

val make :
  schema:Schema.t ->
  card:float ->
  distincts:(string * float) list ->
  ?ranges:(string * (float * float)) list ->
  ?relations:string list ->
  ?grouped:bool ->
  ?colset:Pred.colset ->
  unit ->
  t

val range_of : t -> string -> (float * float) option

val canonical_name : t -> string -> string
(** Resolve a possibly-unqualified column name against the schema,
    returning it unchanged when it does not resolve. *)

val distinct_of : t -> string -> float
(** Distinct-count estimate for a column, clamped by [card], defaulting
    to [card] when the column is untracked (a fresh or computed
    column). *)

val distinct_raw : t -> string -> float option
(** The unclamped, inherited distinct count. Join selectivity must use
    this: it is invariant across the equivalent expressions of a memo
    class, so cardinality estimates are derivation-path-independent and
    every plan for the same subexpression is judged consistently. *)

val pages : page_size:int -> t -> float
(** Estimated pages occupied when materialized. *)
