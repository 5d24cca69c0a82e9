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

val equal : t -> t -> bool

val hash : t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
