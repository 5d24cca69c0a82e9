(** A minimal JSON value type with an emitter and a parser — just
    enough for the observability exporters (Chrome trace, metrics
    snapshots) and the CI shape validators, without pulling a JSON
    dependency into the tree. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t
(** Integer-valued {!Num}. *)

val to_string : t -> string
(** Compact rendering. Integral numbers print without a fraction;
    everything else prints with enough digits to round-trip. *)

val write_file : string -> t -> unit
(** Write [t] to [path] with a trailing newline. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a message with the
    offending byte offset. *)

val read_file : string -> (t, string) result

(** {1 Accessors} — each returns [None] on a shape mismatch. *)

val member : string -> t -> t option
(** Field of an object. *)

val to_list : t -> t list option

val to_float : t -> float option

val to_int : t -> int option

val to_str : t -> string option
