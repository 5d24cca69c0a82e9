(** The catalog: named stored relations with their schemas, data, and
    statistics. The data itself lives here too — the execution engine
    reads it through a paged storage view. *)

module Stats = Stats
module Selectivity = Selectivity
module Plan_schema = Plan_schema

type table = private {
  name : string;
  schema : Relalg.Schema.t;  (** columns carry qualified names ["table.col"] *)
  tuples : Relalg.Tuple.t array;
  mutable stats : Stats.t;  (** refreshed through {!update_stats} *)
  mutable base_props : Relalg.Logical_props.t;
      (** logical properties of the stored relation, built from [stats]
          by {!add}, {!add_materialized} and every {!update_stats};
          read through {!base_props} *)
  mutable stats_version : int;
      (** bumped on every {!update_stats}; plan caches stamp their
          entries with it and invalidate on mismatch *)
  stored_order : Relalg.Sort_order.t;
      (** physical order of the stored data ([[]] = unordered heap) *)
  stored_partitioning : Relalg.Phys_prop.partitioning;
      (** how the stored data is distributed across workers
          ([Singleton] = one site) *)
  mutable indexes : string list list;
      (** clustered-style indexes: each entry is a key-column list; an
          index delivers its key order and supports range scans on its
          leading column *)
  materialized : bool;
      (** a derived relation registered by the multi-query optimizer to
          stand for a shared materialized intermediate; has no stored
          tuples, and [Get] over it implements as [Scan_materialized] *)
}

type t

val create : unit -> t

val uid : t -> int
(** The catalog's identity: distinct for every catalog {!create} made
    in this process. Caches shared between catalogs key by it. *)

val add :
  t ->
  name:string ->
  schema:Relalg.Schema.t ->
  ?stored_order:Relalg.Sort_order.t ->
  ?stored_partitioning:Relalg.Phys_prop.partitioning ->
  Relalg.Tuple.t array ->
  table
(** Register a relation; schema column names are qualified with the
    table name if not already. Statistics are computed immediately.
    @raise Invalid_argument if the name is already taken. *)

val add_materialized :
  t ->
  name:string ->
  props:Relalg.Logical_props.t ->
  ?stored_order:Relalg.Sort_order.t ->
  unit ->
  table
(** Register a derived relation standing for a materialized shared
    intermediate (multi-query optimization). It stores no tuples;
    statistics are synthesized from [props] — the logical properties of
    the subexpression it caches — so cardinality and selectivity
    estimates over it match the original subexpression. Column names
    keep their original qualification, so predicates written against
    the replaced subtree still resolve. Bumps the catalog and schema
    versions.
    @raise Invalid_argument if the name is already taken. *)

val remove : t -> string -> unit
(** Drop a relation (no-op when absent); bumps the catalog and schema
    versions when something was removed. Used to retract materialized intermediates
    that did not pay off. *)

val find : t -> string -> table
(** @raise Not_found *)

val add_index : t -> table:string -> string list -> unit
(** Register an index on the named table (columns may be unqualified).
    @raise Not_found if the table is absent. *)

(** {1 Statistics versioning}

    Optimizer results are only as good as the statistics they were
    computed from. Every table carries a statistics version stamp, and
    the catalog carries a global version covering every change that can
    affect plan choice (new tables, new indexes, refreshed statistics).
    Long-lived consumers — plan caches, optimizer sessions — record the
    stamps they optimized under and treat a mismatch as staleness. *)

val version : t -> int
(** Global catalog version: bumped by {!add}, {!add_materialized},
    {!remove}, {!add_index}, and {!update_stats}. *)

val schema_version : t -> int
(** Schema version: bumped by {!add}, {!add_materialized} and
    {!remove} only, the changes to which tables exist and what their
    schemas are. Statistics and indexes do not move it, so a statement
    translated against the catalog ([Sqlfront.parse]) stays valid
    while it is unchanged. *)

val stats_version : t -> string -> int
(** Per-table statistics version.
    @raise Not_found if the table is absent. *)

val update_stats : t -> table:string -> ?stats:Stats.t -> unit -> unit
(** Install new statistics for a table — recomputed from the stored
    tuples when [stats] is omitted — rebuild its {!base_props} from
    them, and bump both the table's stats version and the catalog
    version.
    @raise Not_found if the table is absent. *)

val find_opt : t -> string -> table option

val mem : t -> string -> bool

val tables : t -> table list

val base_props : table -> Relalg.Logical_props.t
(** Logical properties of the stored relation (the leaf case of
    property derivation): the value stored with the table, rebuilt only
    when its statistics change, so a call allocates nothing. *)

(** {1 Synthetic data}

    Generator used by tests, examples, and the paper-workload
    benchmarks (relations of 1,200–7,200 records of 100 bytes). *)

type column_spec =
  | Serial  (** 0, 1, 2, ... — a key column *)
  | Uniform_int of int * int  (** inclusive bounds *)
  | Uniform_float of float * float
  | Choice of string list  (** categorical strings *)

val add_synthetic :
  t ->
  name:string ->
  columns:(string * column_spec) list ->
  ?widths:(string * int) list ->
  rows:int ->
  seed:int ->
  unit ->
  table
(** Build and register a table with pseudo-random contents; the same
    seed always yields the same data. *)

val plan_schema : t -> Relalg.Physical.plan -> Relalg.Schema.t
(** Output schema of a physical plan against this catalog. *)
