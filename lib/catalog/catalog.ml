module Stats = Stats
module Selectivity = Selectivity
module Plan_schema = Plan_schema

type table = {
  name : string;
  schema : Relalg.Schema.t;
  tuples : Relalg.Tuple.t array;
  mutable stats : Stats.t;
  mutable base_props : Relalg.Logical_props.t;
  mutable stats_version : int;
  stored_order : Relalg.Sort_order.t;
  stored_partitioning : Relalg.Phys_prop.partitioning;
  mutable indexes : string list list;
  materialized : bool;
}

type t = {
  uid : int;
  tables : (string, table) Hashtbl.t;
  mutable catalog_version : int;
  mutable schema_version : int;
}

let next_uid = Atomic.make 0

let create () =
  {
    uid = Atomic.fetch_and_add next_uid 1;
    tables = Hashtbl.create 16;
    catalog_version = 0;
    schema_version = 0;
  }

let uid registry = registry.uid

let version registry = registry.catalog_version

let schema_version registry = registry.schema_version

let bump registry = registry.catalog_version <- registry.catalog_version + 1

(* A change to the set of tables or their schemas: also a catalog
   change. *)
let bump_schema registry =
  registry.schema_version <- registry.schema_version + 1;
  bump registry

let qualify_schema name schema =
  Array.map
    (fun (a : Relalg.Schema.attribute) ->
      if String.contains a.name '.' then a
      else { a with name = Relalg.Schema.qualify name a.name })
    schema

(* The leaf case of property derivation, built from the statistics
   whenever they change: every [Get], every lower bound's leaf floor
   and every cost recomputation reads the stored value. *)
let props_of_stats ~name ~schema (stats : Stats.t) =
  let distincts =
    List.map (fun (col, (s : Stats.column_stats)) -> (col, s.n_distinct)) stats.columns
  in
  let ranges =
    List.filter_map
      (fun (col, (s : Stats.column_stats)) ->
        match s.min_value, s.max_value with
        | Some mn, Some mx ->
          (match Relalg.Value.to_float mn, Relalg.Value.to_float mx with
           | Some lo, Some hi -> Some (col, (lo, hi))
           | _, _ -> None)
        | _, _ -> None)
      stats.columns
  in
  Relalg.Logical_props.make ~schema ~card:stats.row_count ~distincts ~ranges
    ~relations:[ name ] ()

let add registry ~name ~schema ?(stored_order = [])
    ?(stored_partitioning = Relalg.Phys_prop.Singleton) tuples =
  if Hashtbl.mem registry.tables name then
    invalid_arg (Printf.sprintf "Catalog.add: table %S already exists" name);
  let schema = qualify_schema name schema in
  let stats = Stats.of_tuples schema tuples in
  let table =
    {
      name;
      schema;
      tuples;
      stats;
      base_props = props_of_stats ~name ~schema stats;
      stats_version = 0;
      stored_order;
      stored_partitioning;
      indexes = [];
      materialized = false;
    }
  in
  Hashtbl.add registry.tables name table;
  bump_schema registry;
  table

(* A derived relation backing a shared materialized intermediate: no
   stored tuples, statistics synthesized from the logical properties of
   the expression it caches, so property derivation and selectivity over
   it mirror the original subexpression. Column names keep their
   original qualification so predicates above the replaced subtree still
   resolve. *)
let add_materialized registry ~name ~(props : Relalg.Logical_props.t)
    ?(stored_order = []) () =
  if Hashtbl.mem registry.tables name then
    invalid_arg (Printf.sprintf "Catalog.add_materialized: table %S already exists" name);
  let columns =
    Array.to_list props.schema
    |> List.map (fun (a : Relalg.Schema.attribute) ->
           let n_distinct =
             match Relalg.Logical_props.distinct_raw props a.name with
             | Some d -> Float.min d props.card
             | None -> props.card
           in
           let min_value, max_value =
             match Relalg.Logical_props.range_of props a.name with
             | Some (lo, hi) ->
               let v x =
                 match a.ty with
                 | Relalg.Schema.TInt -> Relalg.Value.Int (Float.to_int x)
                 | _ -> Relalg.Value.Float x
               in
               (Some (v lo), Some (v hi))
             | None -> (None, None)
           in
           (a.name, { Stats.n_distinct; min_value; max_value }))
  in
  let stats = { Stats.row_count = props.card; columns } in
  let table =
    {
      name;
      schema = props.schema;
      tuples = [||];
      stats;
      base_props = props_of_stats ~name ~schema:props.schema stats;
      stats_version = 0;
      stored_order;
      stored_partitioning = Relalg.Phys_prop.Singleton;
      indexes = [];
      materialized = true;
    }
  in
  Hashtbl.add registry.tables name table;
  bump_schema registry;
  table

let remove registry name =
  if Hashtbl.mem registry.tables name then begin
    Hashtbl.remove registry.tables name;
    bump_schema registry
  end

let find registry name = Hashtbl.find registry.tables name

let add_index registry ~table columns =
  let t = find registry table in
  let qualified = List.map (Relalg.Schema.resolve t.schema) columns in
  if not (List.mem qualified t.indexes) then begin
    t.indexes <- qualified :: t.indexes;
    bump registry
  end

let stats_version registry name = (find registry name).stats_version

let update_stats registry ~table ?stats () =
  let t = find registry table in
  let stats = match stats with Some s -> s | None -> Stats.of_tuples t.schema t.tuples in
  t.stats <- stats;
  t.base_props <- props_of_stats ~name:t.name ~schema:t.schema stats;
  t.stats_version <- t.stats_version + 1;
  bump registry

let find_opt registry name = Hashtbl.find_opt registry.tables name

let mem registry name = Hashtbl.mem registry.tables name

let tables registry =
  Hashtbl.fold (fun _ t acc -> t :: acc) registry.tables []
  |> List.sort (fun a b -> String.compare a.name b.name)

let base_props table = table.base_props

type column_spec =
  | Serial
  | Uniform_int of int * int
  | Uniform_float of float * float
  | Choice of string list

let spec_type = function
  | Serial | Uniform_int _ -> Relalg.Schema.TInt
  | Uniform_float _ -> Relalg.Schema.TFloat
  | Choice _ -> Relalg.Schema.TStr

let add_synthetic registry ~name ~columns ?(widths = []) ~rows ~seed () =
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  let generator = function
    | Serial -> fun row -> Relalg.Value.Int row
    | Uniform_int (lo, hi) ->
      fun _ -> Relalg.Value.Int (lo + Random.State.int rng (hi - lo + 1))
    | Uniform_float (lo, hi) ->
      fun _ -> Relalg.Value.Float (lo +. Random.State.float rng (hi -. lo))
    | Choice options ->
      let options = Array.of_list options in
      fun _ -> Relalg.Value.Str options.(Random.State.int rng (Array.length options))
  in
  let schema =
    Array.of_list
      (List.map
         (fun (col, spec) ->
           Relalg.Schema.attribute ?width:(List.assoc_opt col widths) col (spec_type spec))
         columns)
  in
  (* One array per row; the generators draw from [rng] row by row, left
     to right, so a seed always yields the same table. *)
  let generators = Array.of_list (List.map (fun (_, spec) -> generator spec) columns) in
  let tuples = Array.init rows (fun row -> Array.map (fun gen -> gen row) generators) in
  add registry ~name ~schema tuples

(** Output schema of a physical plan against this catalog. *)
let plan_schema registry plan =
  Plan_schema.of_plan (fun name -> (find registry name).schema) plan
