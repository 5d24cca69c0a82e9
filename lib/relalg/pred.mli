(** Interned predicates: the conjuncts of [Select] and [Join]
    predicates, hash-consed once per optimizer session, each with the
    columns it reads resolved once.

    A {!table} belongs to one session (one model instance): it is
    mutable and not shared between domains. Column names get small
    integer ids in the table, so the column set of a schema is a bitset
    ({!colset}) and "does this conjunct refer only to these columns" is
    a subset test instead of a name search. The tests agree with
    {!Schema.find_index} on every name: a qualified name resolves
    exactly, and an unqualified one resolves exactly or, failing that,
    to the one column whose base name it is (none when two columns, or
    two copies of one column, share that base name).

    A conjunction is found by the set of its conjuncts' ids. The first
    time a set is conjoined, {!Expr.conjoin} builds its expression, so
    conjunct order and structure are exactly {!Expr.conjoin}'s; after
    that, conjoining the set compares and allocates no expression. *)

type table

val create : unit -> table

type conj
(** One interned conjunct: an expression that is neither an [And] nor
    [true_]. *)

val conj_expr : conj -> Expr.t

type t
(** An interned predicate. Structurally equal expressions intern to the
    same value, so [==] is equality. *)

val id : t -> int
(** Dense per table: the [n]th predicate interned has id [n]. *)

val expr : t -> Expr.t

val conjuncts : t -> conj list
(** {!Expr.conjuncts} of {!expr}, in its order (duplicates kept). *)

val of_expr : table -> Expr.t -> t

val conjoin : table -> conj list -> t
(** The predicate {!Expr.conjoin} builds from these conjuncts:
    duplicates dropped, structural order. *)

(** {1 Column sets} *)

type colset
(** The columns of a schema, with the ones it holds more than once. *)

val no_columns : colset
(** The empty set: nothing but constant-only conjuncts refers only to
    it. *)

val colset : table -> Schema.t -> colset

val concat : colset -> colset -> colset
(** The column set of {!Schema.concat}. *)

val refers_only_to : colset -> conj -> bool
(** Every column the conjunct names resolves in the set. *)

val split : table -> colset -> conj list -> conj list -> t * t
(** [split tbl s l1 l2] conjoins the conjuncts of [l1 @ l2] that do not
    refer only to [s], and those that do. *)

val equijoin_keys : t -> left:colset -> right:colset -> (string * string) list
(** Equality conjuncts of the form [l.col = r.col] with one column
    resolving on each side only, as (left column, right column) pairs
    of canonical (qualified) names, in conjunct order. *)
