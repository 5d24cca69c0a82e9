(** A second data model for the generator: an object algebra with path
    expressions, in the style of the Open OODB optimizer the paper
    reports as built with this tool (§6; the "materialize" or scope
    operator that captures path-expression semantics), plus the paper's
    §4.1 example of an extensible physical property:
    {e assembledness} of complex objects in memory, enforced by the
    assembly operator of Keller, Graefe & Maier.

    Paths are reference chains from the root class, e.g.
    [["dept"; "floor"]] for [emp.dept.floor]. *)

type path = string list

(** Schema-level description of the object base. *)
type class_info = {
  cname : string;
  extent_size : float;  (** number of objects in the class extent *)
  object_bytes : int;
  references : (string * string) list;  (** reference attribute -> target class *)
}

type store = class_info list

val find_class : store -> string -> class_info
(** @raise Not_found *)

val valid_path : store -> root:string -> path -> bool
(** Every step of the path is a reference attribute of the class reached
    so far. *)

(** Logical operators. *)
type op =
  | Extent of string  (** all objects of a class *)
  | O_select of path * float
      (** keep objects whose [path] target passes a test with the given
          selectivity; evaluating it requires the path to be assembled *)
  | Materialize of path list
      (** the scope operator: make the objects reachable via these paths
          available to downstream operators *)

val op_arity : op -> int

val op_name : op -> string

(** Physical algorithms and enforcers. *)
type alg =
  | Extent_scan of string
  | O_filter of path * float  (** requires its path assembled in the input *)
  | Pointer_chase of path list
      (** navigational materialization: one random access per object per
          path step *)
  | Assembly of path list
      (** the assembly-operator enforcer: batches accesses per
          component class, amortizing I/O (Keller et al., SIGMOD 1991) *)

val alg_arity : alg -> int

val alg_name : alg -> string

(** Logical properties: which class the stream ranges over, how many
    objects, which paths are semantically available. *)
type props = {
  root : string;
  card : float;
  store : store;
}

(** Physical property vector: the set of assembled paths. *)
module Path_set : Set.S with type elt = path

type phys = Path_set.t

val phys_covers : provided:phys -> required:phys -> bool

val phys_to_string : phys -> string
