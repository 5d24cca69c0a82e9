(** Tuples: immutable rows of {!Value.t}, positionally matched to a
    {!Schema.t}. *)

type t = Value.t array

val get : t -> int -> Value.t

val concat : t -> t -> t

val project : Schema.t -> string list -> t -> t
(** Keep the named columns (resolved against the schema), in order. *)

val compare_by : Schema.t -> (string * [ `Asc | `Desc ]) list -> t -> t -> int
(** Lexicographic comparison by the given columns and directions.
    Staged: [compare_by schema keys] resolves the columns once and
    returns the comparator, and a comparison allocates nothing. *)

val equal : t -> t -> bool

val hash : t -> int

val pp : Format.formatter -> t -> unit
