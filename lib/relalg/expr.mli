(** Scalar expressions and predicates over tuples.

    This is the condition language attached to [Select] and [Join]
    operators. Columns are referenced by (possibly qualified) name and
    resolved against a schema when an expression is compiled for
    evaluation. *)

type cmp =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

type arith =
  | Add
  | Sub
  | Mul
  | Div

type t =
  | Col of string
  | Const of Value.t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Arith of arith * t * t

val col : string -> t

val int : int -> t

val str : string -> t

val bool : bool -> t

val float : float -> t

val ( =% ) : t -> t -> t
(** Equality comparison. *)

val ( <% ) : t -> t -> t

val ( <=% ) : t -> t -> t

val ( >% ) : t -> t -> t

val ( >=% ) : t -> t -> t

val ( &&% ) : t -> t -> t

val ( ||% ) : t -> t -> t

val true_ : t

val columns : t -> string list
(** Free column references, deduplicated, in first-occurrence order. *)

val conjuncts : t -> t list
(** Flatten nested [And]s; [true_] flattens to []. *)

val conjoin : t list -> t
(** Inverse of {!conjuncts}; [conjoin [] = true_]. *)

val equijoin_keys : t -> left:Schema.t -> right:Schema.t -> (string * string) list
(** Equality conjuncts of the form [l.col = r.col] with one side in
    each input schema, returned as (left column, right column) pairs in
    canonical (qualified) names. *)

val refers_only_to : Schema.t -> t -> bool
(** All column references resolve in the given schema. *)

val compile : Schema.t -> t -> Tuple.t -> Value.t
(** Resolve columns to positions and return an evaluator. Predicate
    results are shared [Bool] constants, so a comparison allocates
    nothing.
    @raise Not_found if a column does not resolve. *)

val eval_pred : Schema.t -> t -> Tuple.t -> bool
(** Predicate evaluation: non-[Bool true] results (including [Null])
    are false, per SQL three-valued filtering. *)

val test : Schema.t -> t -> Tuple.t -> bool
(** The predicate as a typed two-valued test, with {!eval_pred}'s
    result on every row where {!eval_pred} does not raise. Comparisons
    of a column with an [Int] constant compare [Int] cells directly,
    [And] and [Or] test with [&&] and [||], and [Not], bare values and
    arithmetic keep three-valued evaluation. [&&] stops at a left side
    that is NULL, where {!eval_pred} evaluates the right side too: when
    that side raises (arithmetic on a string, say), {!eval_pred}
    raises and [test] is false.
    @raise Not_found if a column does not resolve. *)

val test_pair : left:Schema.t -> right:Schema.t -> t -> Tuple.t -> Tuple.t -> bool
(** [test_pair ~left ~right e l r] is
    [test (Schema.concat left right) e (Tuple.concat l r)], without
    building the concatenation: each column is resolved against the
    concatenated schema and read from whichever row holds it. *)

val equal : t -> t -> bool

val hash : t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
