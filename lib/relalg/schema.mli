(** Attributes and schemas of (intermediate) relations.

    Attribute names are globally disambiguated by qualification
    ("table.column"); the optimizer and executor refer to columns by
    qualified name and resolve them to positions against a schema. *)

type datatype =
  | TBool
  | TInt
  | TFloat
  | TStr

type attribute = {
  name : string;  (** qualified name, e.g. ["emp.salary"] *)
  ty : datatype;
  width : int;  (** bytes this column contributes to a stored tuple *)
}

type t = attribute array

val attribute : ?width:int -> string -> datatype -> attribute
(** [attribute name ty] with a default width per type (bool/int/float 8,
    string 24). *)

val qualify : string -> string -> string
(** [qualify "emp" "salary"] is ["emp.salary"]. *)

val base_name : string -> string
(** Unqualified part of a column name: [base_name "emp.salary" = "salary"]. *)

val find_index : t -> string -> int
(** Position of a column, or [-1] if it is absent or ambiguous. Accepts
    a qualified name, or an unqualified name when it is unambiguous in
    the schema. Neither raises nor allocates: the unqualified match
    compares name suffixes in place, and a name with a dot, which no
    attribute's base name can equal, skips it. *)

val index_of : t -> string -> int
(** {!find_index} for a column that must be present.
    @raise Not_found if absent or ambiguous. *)

val mem : t -> string -> bool
(** [find_index schema name >= 0]: neither raises nor allocates. *)

val find : t -> string -> attribute
(** @raise Not_found like {!index_of}. *)

val resolve : t -> string -> string
(** Canonical (qualified) name for a possibly-unqualified reference.
    @raise Not_found like {!index_of}. *)

val concat : t -> t -> t

val project : t -> string list -> t
(** Restrict to the given columns, in the given order.
    @raise Not_found if a column is absent. *)

val names : t -> string list

val row_width : t -> int
(** Sum of column widths: stored bytes per tuple. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
