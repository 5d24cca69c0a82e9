(** Physical property vectors for the relational model.

    Per the paper, the property vector is an abstract data type chosen
    by the optimizer implementor and only inspected through equality
    and cover tests. The relational instance carries three properties:

    - [order]: sort order of the stream ([[]] = no guarantee); on a
      partitioned stream the order holds within each partition;
    - [distinct]: whether the stream is duplicate-free (the paper's
      "uniqueness" example, with sort- and hash-based enforcers);
    - [partitioning]: how the stream is distributed across workers
      (paper SS4.1: "location and partitioning in parallel and
      distributed systems can be enforced with ... Volcano's exchange
      operator"). *)

type partitioning =
  | Any_part  (** as a requirement: no constraint; never delivered *)
  | Singleton  (** the whole stream at one site *)
  | Hashed of string list  (** hash-partitioned on these columns *)

type t = {
  order : Sort_order.t;
  distinct : bool;
  partitioning : partitioning;
}

val any : t
(** No requirements: unsorted, duplicates allowed, any location. *)

val sorted : Sort_order.t -> t

val with_distinct : t -> t

val with_partitioning : partitioning -> t -> t

val gathered : t
(** Requirement: everything at one site (a user-facing result). *)

val covers : provided:t -> required:t -> bool
(** Every requirement in [required] is met by [provided]. *)

val equal : t -> t -> bool

val hash : t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
