(** The logical algebra: operators describing {e what} a query computes
    (paper §2.2). Queries enter the optimizer as trees of these
    operators; transformation rules rewrite within this algebra. *)

type agg_func =
  | Count
  | Sum
  | Min
  | Max
  | Avg

type agg = {
  func : agg_func;
  column : string option;  (** [None] only for [Count], i.e. count-star *)
  alias : string;
}

type op =
  | Get of string  (** named stored relation *)
  | Select of Expr.t
  | Project of string list  (** without duplicate removal *)
  | Join of Expr.t  (** inner join; a [true_] predicate is a Cartesian product *)
  | Union
  | Intersect
  | Difference
  | Group_by of string list * agg list

type expr = {
  op : op;
  inputs : expr list;
}

val arity : op -> int

val get : string -> expr

val select : Expr.t -> expr -> expr

val project : string list -> expr -> expr

val join : Expr.t -> expr -> expr -> expr

val union : expr -> expr -> expr

val intersect : expr -> expr -> expr

val difference : expr -> expr -> expr

val group_by : string list -> agg list -> expr -> expr

val mk : op -> expr list -> expr
(** @raise Invalid_argument on an arity mismatch. *)

val op_name : op -> string

val op_equal : op -> op -> bool

val equal : expr -> expr -> bool

val size : expr -> int
(** Number of operator nodes. *)

val relations : expr -> string list
(** Names of all [Get] leaves, in left-to-right order. *)

val agg_result_name : agg -> string

val pp : Format.formatter -> expr -> unit
(** Multi-line indented tree rendering. *)
