(** Sort orders: the canonical physical property of the paper.

    A sort order is a list of (column, direction) keys, significant
    left-to-right. The empty list means "no particular order". *)

type dir =
  | Asc
  | Desc

type t = (string * dir) list

val asc : string list -> t

val covers : provided:t -> required:t -> bool
(** [covers ~provided ~required] holds when data sorted by [provided]
    is also sorted by [required], i.e. [required] is a prefix of
    [provided]. The empty requirement is always covered. *)

val equal : t -> t -> bool

val columns : t -> string list

val compare_tuples : Schema.t -> t -> Tuple.t -> Tuple.t -> int
(** Staged like {!Tuple.compare_by}: apply it to the schema and order
    once, then compare many tuples. *)

val is_sorted : Schema.t -> t -> Tuple.t array -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string
