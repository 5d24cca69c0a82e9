open Relalg
module Rule = Volcano.Rule

module type REL_MODEL =
  Volcano.Signatures.MODEL
    with type op = Logical.op
     and type alg = Physical.alg
     and type logical_props = Logical_props.t
     and type phys_props = Phys_prop.t
     and type cost = Cost.t

type flags = {
  alternatives : bool;
  left_deep_only : bool;
}

let default_flags = { alternatives = true; left_deep_only = false }

let rec to_tree (e : Logical.expr) = Volcano.Tree.node e.op (List.map to_tree e.inputs)

(* ---------------------------------------------------------------------- *)
(* Pattern helpers                                                          *)
(* ---------------------------------------------------------------------- *)

let is_join = function Logical.Join _ -> true | _ -> false
let is_get = function Logical.Get _ -> true | _ -> false
let is_select = function Logical.Select _ -> true | _ -> false
let is_project = function Logical.Project _ -> true | _ -> false
let is_group_by = function Logical.Group_by _ -> true | _ -> false
let is_union = function Logical.Union -> true | _ -> false
let is_intersect = function Logical.Intersect -> true | _ -> false
let is_difference = function Logical.Difference -> true | _ -> false

let join_pattern = Rule.Op (is_join, [ Rule.Any; Rule.Any ])

(* A conjunct mentions a schema "alone" when every column it references
   resolves there. *)
let refers_within schema conj = Expr.refers_only_to schema conj

(* ---------------------------------------------------------------------- *)
(* Transformation rules                                                     *)
(* ---------------------------------------------------------------------- *)

(* Join commutativity: JOIN(p, A, B) == JOIN(p, B, A). *)
let join_commute : (Logical.op, Logical_props.t) Rule.transform =
  {
    t_name = "join-commute";
    t_promise = 1;
    t_pattern = join_pattern;
    t_apply =
      (fun ~lookup:_ binding ->
        match binding with
        | Rule.Node (Logical.Join p, [ a; b ]) -> [ Rule.Node (Logical.Join p, [ b; a ]) ]
        | _ -> []);
  }

(* Join associativity (Figure 3): JOIN(p1, JOIN(p2, A, B), C) ==
   JOIN(top, A, JOIN(bottom, B, C)), redistributing the conjuncts of
   p1 AND p2 by the schemas they reference. The inner JOIN(bottom,B,C)
   is expression "C" of Figure 3: it requires a new equivalence
   class. *)
let join_assoc : (Logical.op, Logical_props.t) Rule.transform =
  {
    t_name = "join-assoc";
    t_promise = 1;
    t_pattern = Rule.Op (is_join, [ join_pattern; Rule.Any ]);
    t_apply =
      (fun ~lookup binding ->
        match binding with
        | Rule.Node
            ( Logical.Join p1,
              [ Rule.Node (Logical.Join p2, [ a; b ]); (Rule.Group gc as c) ] ) ->
          let group_of = function
            | Rule.Group g -> g
            | Rule.Node _ ->
              (* Patterns bottom out in Any, so A and B are groups. *)
              assert false
          in
          let sb = (lookup (group_of b)).Logical_props.schema in
          let sc = (lookup gc).Logical_props.schema in
          let top, bottom = Rewrites.assoc_split ~p1 ~p2 ~schema_b:sb ~schema_c:sc in
          [ Rule.Node (Logical.Join top, [ a; Rule.Node (Logical.Join bottom, [ b; c ]) ]) ]
        | _ -> []);
  }

(* Selection cascade: SELECT(p1, SELECT(p2, A)) == SELECT(p1 AND p2, A). *)
let select_merge : (Logical.op, Logical_props.t) Rule.transform =
  {
    t_name = "select-merge";
    t_promise = 1;
    t_pattern = Rule.Op (is_select, [ Rule.Op (is_select, [ Rule.Any ]) ]);
    t_apply =
      (fun ~lookup:_ binding ->
        match binding with
        | Rule.Node (Logical.Select p1, [ Rule.Node (Logical.Select p2, [ a ]) ]) ->
          [ Rule.Node (Logical.Select (Expr.conjoin (Expr.conjuncts p1 @ Expr.conjuncts p2)), [ a ]) ]
        | _ -> []);
  }

(* Selection pushdown: SELECT(p, JOIN(jp, A, B)) pushes each conjunct of
   p to the input whose schema covers it, merging the rest into the join
   predicate. *)
let select_push_join : (Logical.op, Logical_props.t) Rule.transform =
  {
    t_name = "select-push-join";
    t_promise = 1;
    t_pattern = Rule.Op (is_select, [ join_pattern ]);
    t_apply =
      (fun ~lookup binding ->
        match binding with
        | Rule.Node
            ( Logical.Select p,
              [ Rule.Node (Logical.Join jp, [ (Rule.Group gl as a); (Rule.Group gr as b) ]) ] )
          ->
          let sl = (lookup gl).Logical_props.schema in
          let sr = (lookup gr).Logical_props.schema in
          let conj = Expr.conjuncts p in
          let on_left, rest = List.partition (refers_within sl) conj in
          let on_right, to_join = List.partition (refers_within sr) rest in
          if on_left = [] && on_right = [] && to_join = [] then []
          else begin
            let wrap side preds =
              match preds with
              | [] -> side
              | _ -> Rule.Node (Logical.Select (Expr.conjoin preds), [ side ])
            in
            let jp' = Expr.conjoin (Expr.conjuncts jp @ to_join) in
            [ Rule.Node (Logical.Join jp', [ wrap a on_left; wrap b on_right ]) ]
          end
        | _ -> []);
  }

(* Set-operation commutativity is deliberately omitted: our columns are
   resolved by name, and commuting a union/intersection would present
   the right branch's column names to parent operators. The plan space
   loses nothing — the merge- and hash-based set algorithms treat both
   inputs symmetrically. *)

(* ---------------------------------------------------------------------- *)
(* Model construction                                                       *)
(* ---------------------------------------------------------------------- *)

let make ~catalog ?(params = Cost_model.default) ?(flags = default_flags) () :
    (module REL_MODEL) =
  let module M = struct
    let model_name = "relational"

    type op = Logical.op

    let op_arity = Logical.arity
    let op_equal = Logical.op_equal
    let op_hash = Logical.op_hash
    let op_name = Logical.op_name

    type alg = Physical.alg

    let alg_arity = Physical.arity
    let alg_name = Physical.alg_name

    type logical_props = Logical_props.t

    let derive o inputs = Derive.op catalog o inputs

    type phys_props = Phys_prop.t

    let pp_equal = Phys_prop.equal
    let pp_hash = Phys_prop.hash
    let pp_covers = Phys_prop.covers

    let pp_to_string = Phys_prop.to_string

    type cost = Cost.t

    let cost_zero = Cost.zero
    let cost_infinite = Cost.infinite
    let cost_is_infinite = Cost.is_infinite
    let cost_add = Cost.add
    let cost_sub = Cost.sub
    let cost_compare = Cost.compare
    let cost_to_string = Cost.to_string

    let deliver (alg : Physical.alg) (inputs : Phys_prop.t list) : Phys_prop.t =
      let in1 () = match inputs with [ p ] -> p | _ -> Phys_prop.any in
      let left () = match inputs with l :: _ -> l | [] -> Phys_prop.any in
      (* Output distribution of a binary operator: the vectors only ever
         pair one-site inputs or co-partitioned inputs, and the result
         stays where the rows are. *)
      let joined_partitioning () =
        match inputs with
        | [ { Phys_prop.partitioning = Phys_prop.Singleton; _ };
            { Phys_prop.partitioning = Phys_prop.Singleton; _ } ] ->
          Phys_prop.Singleton
        | [ { Phys_prop.partitioning = Phys_prop.Hashed c; _ }; _ ] -> Phys_prop.Hashed c
        | _ -> Phys_prop.Any_part
      in
      match alg with
      | Physical.Table_scan t -> begin
        match Catalog.find_opt catalog t with
        | Some tbl ->
          {
            Phys_prop.order = tbl.stored_order;
            distinct = false;
            partitioning = tbl.stored_partitioning;
          }
        | None -> Phys_prop.any
      end
      | Physical.Index_scan (t, cols, _) -> begin
        match Catalog.find_opt catalog t with
        | Some tbl ->
          {
            Phys_prop.order = Sort_order.asc cols;
            distinct = false;
            partitioning = tbl.stored_partitioning;
          }
        | None -> Phys_prop.any
      end
      | Physical.Filter _ -> in1 ()
      | Physical.Project_cols cols ->
        (* Order survives as long as its leading keys are retained;
           hash-partitioning only if its columns are retained too. *)
        let p = in1 () in
        let rec prefix = function
          | (c, d) :: rest when List.mem c cols -> (c, d) :: prefix rest
          | _ -> []
        in
        let partitioning =
          match p.Phys_prop.partitioning with
          | Phys_prop.Hashed pc when not (List.for_all (fun c -> List.mem c cols) pc) ->
            Phys_prop.Any_part
          | other -> other
        in
        { Phys_prop.order = prefix p.Phys_prop.order; distinct = false; partitioning }
      | Physical.Nested_loop_join _ | Physical.Merge_join _ ->
        {
          Phys_prop.order = (left ()).Phys_prop.order;
          distinct = false;
          partitioning = joined_partitioning ();
        }
      | Physical.Hash_join _ | Physical.Hash_join_project _ ->
        { Phys_prop.any with partitioning = joined_partitioning () }
      | Physical.Sort o -> { (in1 ()) with Phys_prop.order = o }
      | Physical.Hash_dedup ->
        (* Equal tuples hash alike on any column subset, so per-partition
           duplicate removal is globally correct and the distribution is
           preserved. *)
        { Phys_prop.order = []; distinct = true; partitioning = (in1 ()).Phys_prop.partitioning }
      | Physical.Sort_dedup o ->
        { Phys_prop.order = o; distinct = true; partitioning = (in1 ()).Phys_prop.partitioning }
      | Physical.Repartition cols ->
        {
          Phys_prop.order = [];
          distinct = (in1 ()).Phys_prop.distinct;
          partitioning = Phys_prop.Hashed cols;
        }
      | Physical.Gather ->
        {
          Phys_prop.order = [];
          distinct = (in1 ()).Phys_prop.distinct;
          partitioning = Phys_prop.Singleton;
        }
      | Physical.Merge_gather o ->
        {
          Phys_prop.order = o;
          distinct = (in1 ()).Phys_prop.distinct;
          partitioning = Phys_prop.Singleton;
        }
      | Physical.Merge_union | Physical.Merge_intersect | Physical.Merge_difference ->
        {
          Phys_prop.order = (left ()).Phys_prop.order;
          distinct = true;
          partitioning = joined_partitioning ();
        }
      | Physical.Hash_union | Physical.Hash_intersect | Physical.Hash_difference ->
        { Phys_prop.order = []; distinct = true; partitioning = joined_partitioning () }
      | Physical.Stream_aggregate (keys, _) ->
        {
          Phys_prop.order = Sort_order.asc keys;
          distinct = true;
          partitioning = (in1 ()).Phys_prop.partitioning;
        }
      | Physical.Hash_aggregate _ ->
        { Phys_prop.order = []; distinct = true; partitioning = (in1 ()).Phys_prop.partitioning }
      | Physical.Materialize _ ->
        (* A tee: tuples flow through to the parent in the same order,
           distribution, and multiplicity while a copy is written out. *)
        in1 ()
      | Physical.Scan_materialized t -> begin
        match Catalog.find_opt catalog t with
        | Some tbl ->
          {
            Phys_prop.order = tbl.stored_order;
            distinct = false;
            partitioning = tbl.stored_partitioning;
          }
        | None -> Phys_prop.any
      end

    (* Partitioned execution divides an operator's work across the
       workers; exchanges that funnel everything to one site do not
       parallelize. *)
    let cost_of alg ~inputs ~input_props ~output =
      let base = Cost_model.cost params alg ~inputs ~output in
      if params.Cost_model.workers <= 1 then base
      else begin
        match alg with
        | Physical.Gather | Physical.Merge_gather _ -> base
        | _ -> begin
          match (deliver alg input_props).Phys_prop.partitioning with
          | Phys_prop.Hashed _ -> Cost.scale (1. /. Float.of_int params.Cost_model.workers) base
          | Phys_prop.Singleton | Phys_prop.Any_part -> base
        end
      end

    (* A certified lower bound on the cost of any plan delivering
       [required] for an expression with logical properties [props]
       (see {!Signatures.MODEL.cost_lower_bound}). Three additive
       floors, each provable against every algorithm shape in
       {!Cost_model}:
       - copy: every plan's top non-exchange, non-sort operator pays
         [card * cpu_tuple] to produce the result; exchanges, [Sort]
         and [Sort_dedup] inherit the floor from their input, which
         belongs to the same class and so has the same cardinality;
       - leaves: transformation rules preserve the multiset of base
         relations, so every plan contains one access-path leaf per
         relation occurrence. A relation without indexes can only be
         read by a full [Table_scan] ([pages * io_time]); with indexes
         at least the index descent plus one data page is paid, so
         [min pages 2 * io_time] holds either way;
       - sort: when an order is required over a single-relation,
         aggregate-free class whose relation offers no ordered access
         path on the leading required column (no index, no stored
         order), the order can only originate at a [Sort] or
         [Sort_dedup] of at least [card] rows (cardinality never grows
         along a unary chain). Joins and set operations are excluded —
         they can expand cardinality above the ordered side's — as are
         grouped classes, where [Stream_aggregate] delivers its key
         order for a comparison-only cost.
       The floors reuse {!Cost_model}'s exact floating-point
       expressions, so the bound can equal an optimal plan's cost to
       the last bit but never exceed it. Parallel execution scales an
       operator's cost by [1/workers] at most, so the whole bound is
       scaled likewise. *)
    let cost_lower_bound (props : Logical_props.t) (required : Phys_prop.t) : Cost.t =
      let copy_cpu = props.Logical_props.card *. params.Cost_model.cpu_tuple in
      let leaf_io =
        List.fold_left
          (fun acc name ->
            match Catalog.find_opt catalog name with
            | None -> acc
            | Some tbl ->
              let pg =
                Logical_props.pages ~page_size:params.Cost_model.page_bytes
                  (Catalog.base_props tbl)
              in
              let floor_pages = if tbl.indexes = [] then pg else Float.min pg 2. in
              acc +. (floor_pages *. params.Cost_model.io_time))
          0. props.Logical_props.relations
      in
      let sort_cpu =
        match required.Phys_prop.order with
        | [] -> 0.
        | (lead, _) :: _ -> begin
          match props.Logical_props.relations with
          | [ name ] when not props.Logical_props.grouped -> begin
            match Catalog.find_opt catalog name with
            | None -> 0.
            | Some tbl ->
              let canon c =
                let i = Schema.find_index tbl.schema c in
                if i >= 0 then tbl.schema.(i).Schema.name else c
              in
              let lead = canon (Logical_props.canonical_name props lead) in
              let leads c = String.equal (canon c) lead in
              let free_order =
                (match tbl.stored_order with (c, _) :: _ -> leads c | [] -> false)
                || List.exists (function c :: _ -> leads c | [] -> false) tbl.indexes
              in
              if free_order then 0.
              else begin
                let n = Float.max props.Logical_props.card 1. in
                n *. (Cost_model.log2 n +. 1.) *. params.Cost_model.cpu_compare
              end
          end
          | _ -> 0.
        end
      in
      let bound = Cost.make ~io:leaf_io ~cpu:(copy_cpu +. sort_cpu) in
      if params.Cost_model.workers <= 1 then bound
      else Cost.scale (1. /. Float.of_int params.Cost_model.workers) bound

    (* ------------------------------------------------------------------ *)

    let transforms =
      [
        join_commute;
        join_assoc;
        select_merge;
        select_push_join;
      ]

    (* Implementation rules. Each apply function doubles as the paper's
       applicability function: it inspects the required property vector
       and proposes the input requirement vectors under which the
       algorithm can deliver it. *)

    let choice alg c_inputs c_alternatives = { Rule.c_alg = alg; c_inputs; c_alternatives }

    let parallel = params.Cost_model.workers > 1

    (* Distribution requirements for binary operators: both inputs at
       one site, or — when running parallel and keys are available —
       co-partitioned on the join keys ("compatible partitioning
       rules", paper Â§3). *)
    let binary_vectors ?partition_keys vectors =
      let at site v = List.map (Phys_prop.with_partitioning site) v in
      List.concat_map
        (fun v ->
          let singleton = at Phys_prop.Singleton v in
          let partitioned =
            match partition_keys with
            | Some (lk, rk) when parallel -> begin
              match v with
              | [ l; r ] ->
                [
                  [
                    Phys_prop.with_partitioning (Phys_prop.Hashed lk) l;
                    Phys_prop.with_partitioning (Phys_prop.Hashed rk) r;
                  ];
                ]
              | _ -> []
            end
            | _ -> []
          in
          singleton :: partitioned)
        vectors

    let get_to_scan : (Logical.op, Physical.alg, Logical_props.t, Phys_prop.t) Rule.implement =
      {
        i_name = "get->table_scan";
        i_promise = 5;
        i_pattern = Rule.Op (is_get, []);
        i_apply =
          (fun ~lookup:_ ~required:_ binding ->
            match binding with
            | Rule.Node (Logical.Get t, []) ->
              let alg =
                match Catalog.find_opt catalog t with
                | Some tbl when tbl.materialized -> Physical.Scan_materialized t
                | _ -> Physical.Table_scan t
              in
              [ choice alg [] [ [] ] ]
            | _ -> []);
      }

    let select_to_filter : (Logical.op, Physical.alg, Logical_props.t, Phys_prop.t) Rule.implement
        =
      {
        i_name = "select->filter";
        i_promise = 4;
        i_pattern = Rule.Op (is_select, [ Rule.Any ]);
        i_apply =
          (fun ~lookup:_ ~required binding ->
            match binding with
            | Rule.Node (Logical.Select p, [ Rule.Group g ]) ->
              (* Filter is property-transparent: pass the requirement
                 through to the input. *)
              [ choice (Physical.Filter p) [ g ] [ [ required ] ] ]
            | _ -> []);
      }

    let project_to_project :
        (Logical.op, Physical.alg, Logical_props.t, Phys_prop.t) Rule.implement =
      {
        i_name = "project->project";
        i_promise = 4;
        i_pattern = Rule.Op (is_project, [ Rule.Any ]);
        i_apply =
          (fun ~lookup:_ ~required binding ->
            match binding with
            | Rule.Node (Logical.Project cols, [ Rule.Group g ]) ->
              if required.Phys_prop.distinct then []
              else if
                List.for_all (fun (c, _) -> List.mem c cols) required.Phys_prop.order
              then
                [
                  choice (Physical.Project_cols cols) [ g ]
                    [ [ Phys_prop.sorted required.Phys_prop.order ] ];
                ]
              else []
            | _ -> []);
      }

    let left_deep_ok lookup gr =
      (not flags.left_deep_only)
      || List.length (lookup gr).Logical_props.relations <= 1

    (* Selection over a stored relation implemented by one index range
       scan — the paper's multi-node implementation rules: "it is
       possible to map multiple logical operators to a single physical
       operator" (§2.2). Applicable when some index's leading column is
       range- or equality-bounded by the predicate. *)
    let index_applicable (table : Catalog.table) pred =
      let bounds_column col conj =
        match conj with
        | Expr.Cmp (_, Expr.Col c, Expr.Const _) | Expr.Cmp (_, Expr.Const _, Expr.Col c)
          ->
          let i = Schema.find_index table.schema c in
          i >= 0 && String.equal table.schema.(i).Schema.name col
        | _ -> false
      in
      List.filter
        (fun index ->
          match index with
          | lead :: _ -> List.exists (bounds_column lead) (Expr.conjuncts pred)
          | [] -> false)
        table.indexes

    let select_get_to_index_scan :
        (Logical.op, Physical.alg, Logical_props.t, Phys_prop.t) Rule.implement =
      {
        i_name = "select(get)->index_scan";
        i_promise = 5;
        i_pattern = Rule.Op (is_select, [ Rule.Op (is_get, []) ]);
        i_apply =
          (fun ~lookup:_ ~required binding ->
            match binding with
            | Rule.Node (Logical.Select pred, [ Rule.Node (Logical.Get t, []) ]) -> begin
              if required.Phys_prop.distinct then []
              else
                match Catalog.find_opt catalog t with
                | None -> []
                | Some table ->
                  List.map
                    (fun index -> choice (Physical.Index_scan (t, index, pred)) [] [ [] ])
                    (index_applicable table pred)
            end
            | _ -> []);
      }

    let get_to_index_scan :
        (Logical.op, Physical.alg, Logical_props.t, Phys_prop.t) Rule.implement =
      {
        i_name = "get->index_scan(order)";
        i_promise = 4;
        i_pattern = Rule.Op (is_get, []);
        i_apply =
          (fun ~lookup:_ ~required binding ->
            match binding with
            | Rule.Node (Logical.Get t, []) -> begin
              (* A full scan in index order: only worth proposing when an
                 order is actually wanted (access-path interesting
                 orders). *)
              if required.Phys_prop.order = [] then []
              else
                match Catalog.find_opt catalog t with
                | None -> []
                | Some table ->
                  List.map
                    (fun index ->
                      choice (Physical.Index_scan (t, index, Expr.true_)) [] [ [] ])
                    table.indexes
            end
            | _ -> []);
      }

    (* Projection fused into the join — the paper's join+projection
       single-procedure example (§2.2). *)
    let project_join_fuse :
        (Logical.op, Physical.alg, Logical_props.t, Phys_prop.t) Rule.implement =
      {
        i_name = "project(join)->hash_join_project";
        i_promise = 4;
        i_pattern = Rule.Op (is_project, [ join_pattern ]);
        i_apply =
          (fun ~lookup ~required binding ->
            match binding with
            | Rule.Node
                ( Logical.Project cols,
                  [ Rule.Node (Logical.Join p, [ Rule.Group gl; Rule.Group gr ]) ] ) ->
              let sl = (lookup gl).Logical_props.schema in
              let sr = (lookup gr).Logical_props.schema in
              let keys = Expr.equijoin_keys p ~left:sl ~right:sr in
              if
                keys = []
                || required.Phys_prop.order <> []
                || required.Phys_prop.distinct
                || not (left_deep_ok lookup gr)
              then []
              else
                [
                  choice
                    (Physical.Hash_join_project (keys, p, cols))
                    [ gl; gr ]
                    (binary_vectors
                       ~partition_keys:(List.map fst keys, List.map snd keys)
                       [ [ Phys_prop.any; Phys_prop.any ] ]);
                ]
            | _ -> []);
      }

    let join_sides lookup gl gr =
      let l = lookup gl and r = lookup gr in
      (l.Logical_props.schema, r.Logical_props.schema, l, r)

    let join_to_nested_loop :
        (Logical.op, Physical.alg, Logical_props.t, Phys_prop.t) Rule.implement =
      {
        i_name = "join->nested_loop";
        i_promise = 1;
        i_pattern = join_pattern;
        i_apply =
          (fun ~lookup ~required binding ->
            match binding with
            | Rule.Node (Logical.Join p, [ Rule.Group gl; Rule.Group gr ]) ->
              if not (left_deep_ok lookup gr) then []
              else if required.Phys_prop.distinct then []
              else begin
                (* Nested loops preserves the outer order, so the order
                   requirement can be delegated to the outer input. *)
                let base = [ Phys_prop.any; Phys_prop.any ] in
                let vectors =
                  if required.Phys_prop.order = [] then [ base ]
                  else [ [ Phys_prop.sorted required.Phys_prop.order; Phys_prop.any ] ]
                in
                [ choice (Physical.Nested_loop_join p) [ gl; gr ] (binary_vectors vectors) ]
              end
            | _ -> []);
      }

    let join_to_hash : (Logical.op, Physical.alg, Logical_props.t, Phys_prop.t) Rule.implement =
      {
        i_name = "join->hybrid_hash";
        i_promise = 3;
        i_pattern = join_pattern;
        i_apply =
          (fun ~lookup ~required binding ->
            match binding with
            | Rule.Node (Logical.Join p, [ Rule.Group gl; Rule.Group gr ]) ->
              let sl, sr, _, _ = join_sides lookup gl gr in
              let keys = Expr.equijoin_keys p ~left:sl ~right:sr in
              if keys = [] || not (left_deep_ok lookup gr) then []
              else if required.Phys_prop.order <> [] || required.Phys_prop.distinct then
                (* Hash join cannot deliver order or uniqueness: fails
                   the applicability test (§2.2's example). *)
                []
              else
                [
                  choice (Physical.Hash_join (keys, p)) [ gl; gr ]
                    (binary_vectors
                       ~partition_keys:(List.map fst keys, List.map snd keys)
                       [ [ Phys_prop.any; Phys_prop.any ] ]);
                ]
            | _ -> []);
      }

    (* Key orders merge join may sort its inputs by: the natural key
       order; when the required output order is a permutation of (a
       prefix of) the keys, an order aligned with it; and, when
       alternatives are enabled, the reversed key order (the paper's
       multiple-alternative-vectors facility, §3). *)
    let merge_key_orders required keys =
      let req_cols = List.map fst required.Phys_prop.order in
      let all_asc =
        List.for_all (fun (_, d) -> d = Sort_order.Asc) required.Phys_prop.order
      in
      let aligned =
        if all_asc && req_cols <> [] && List.for_all (fun c -> List.mem_assoc c keys) req_cols
        then begin
          (* Start with the keys named by the requirement, in its order,
             then the remaining keys. *)
          let first = List.map (fun c -> (c, List.assoc c keys)) req_cols in
          let rest = List.filter (fun (l, _) -> not (List.mem l req_cols)) keys in
          [ first @ rest ]
        end
        else []
      in
      let base = [ keys ] in
      let reversed = if flags.alternatives && List.length keys > 1 then [ List.rev keys ] else [] in
      (* Dedup while preserving order. *)
      List.fold_left
        (fun acc o -> if List.mem o acc then acc else acc @ [ o ])
        [] (aligned @ base @ reversed)

    let join_to_merge : (Logical.op, Physical.alg, Logical_props.t, Phys_prop.t) Rule.implement
        =
      {
        i_name = "join->merge";
        i_promise = 2;
        i_pattern = join_pattern;
        i_apply =
          (fun ~lookup ~required binding ->
            match binding with
            | Rule.Node (Logical.Join p, [ Rule.Group gl; Rule.Group gr ]) ->
              let sl, sr, _, _ = join_sides lookup gl gr in
              let keys = Expr.equijoin_keys p ~left:sl ~right:sr in
              if keys = [] || not (left_deep_ok lookup gr) then []
              else if required.Phys_prop.distinct then []
              else begin
                let vectors =
                  List.map
                    (fun key_order ->
                      [
                        Phys_prop.sorted (Sort_order.asc (List.map fst key_order));
                        Phys_prop.sorted (Sort_order.asc (List.map snd key_order));
                      ])
                    (merge_key_orders required keys)
                in
                [
                  choice (Physical.Merge_join (keys, p)) [ gl; gr ]
                    (binary_vectors
                       ~partition_keys:(List.map fst keys, List.map snd keys)
                       vectors);
                ]
              end
            | _ -> []);
      }

    (* Sorted-input vectors for merge-based set operations: any sort
       order works as long as both inputs use the same column positions
       (§3's intersection example). We offer the schema order and, when
       alternatives are enabled, one rotation. *)
    let setop_vectors lookup gl gr =
      let sl = (lookup gl).Logical_props.schema and sr = (lookup gr).Logical_props.schema in
      let cols schema = Array.to_list (Array.map (fun (a : Schema.attribute) -> a.name) schema) in
      let lcols = cols sl and rcols = cols sr in
      let rotate = function [] -> [] | x :: rest -> rest @ [ x ] in
      (* The merge algorithms skip duplicates on the fly, so the inputs
         only need matching sort orders, not uniqueness. *)
      let vector lc rc =
        [ Phys_prop.sorted (Sort_order.asc lc); Phys_prop.sorted (Sort_order.asc rc) ]
      in
      let base = vector lcols rcols in
      if flags.alternatives && List.length lcols > 1 then
        [ base; vector (rotate lcols) (rotate rcols) ]
      else [ base ]

    let setop_impl name ~promise ~matches ~merge_alg ~hash_alg :
        (Logical.op, Physical.alg, Logical_props.t, Phys_prop.t) Rule.implement =
      {
        i_name = name;
        i_promise = promise;
        i_pattern = Rule.Op (matches, [ Rule.Any; Rule.Any ]);
        i_apply =
          (fun ~lookup ~required binding ->
            match binding with
            | Rule.Node (_, [ Rule.Group gl; Rule.Group gr ]) ->
              (* Set operations run at one site: partition compatibility
                 across differently-named columns is out of scope. *)
              let merge =
                choice merge_alg [ gl; gr ] (binary_vectors (setop_vectors lookup gl gr))
              in
              let hash =
                if required.Phys_prop.order <> [] then []
                else
                  [
                    choice hash_alg [ gl; gr ]
                      (binary_vectors [ [ Phys_prop.any; Phys_prop.any ] ]);
                  ]
              in
              merge :: hash
            | _ -> []);
      }

    let union_impl =
      setop_impl "union->merge|hash" ~promise:2 ~matches:is_union
        ~merge_alg:Physical.Merge_union ~hash_alg:Physical.Hash_union

    let intersect_impl =
      setop_impl "intersect->merge|hash" ~promise:2 ~matches:is_intersect
        ~merge_alg:Physical.Merge_intersect ~hash_alg:Physical.Hash_intersect

    let difference_impl =
      setop_impl "difference->merge|hash" ~promise:2 ~matches:is_difference
        ~merge_alg:Physical.Merge_difference ~hash_alg:Physical.Hash_difference

    let group_by_impl : (Logical.op, Physical.alg, Logical_props.t, Phys_prop.t) Rule.implement
        =
      {
        i_name = "group_by->stream|hash";
        i_promise = 3;
        i_pattern = Rule.Op (is_group_by, [ Rule.Any ]);
        i_apply =
          (fun ~lookup:_ ~required binding ->
            match binding with
            | Rule.Node (Logical.Group_by (keys, aggs), [ Rule.Group g ]) ->
              (* Grouping is correct at one site, or partitioned on the
                 grouping keys (each group lives wholly at one worker). *)
              let unary_vectors base =
                let singleton =
                  [ Phys_prop.with_partitioning Phys_prop.Singleton base ]
                in
                if parallel && keys <> [] then
                  [
                    singleton;
                    [ Phys_prop.with_partitioning (Phys_prop.Hashed keys) base ];
                  ]
                else [ singleton ]
              in
              let stream =
                choice
                  (Physical.Stream_aggregate (keys, aggs))
                  [ g ]
                  (unary_vectors (Phys_prop.sorted (Sort_order.asc keys)))
              in
              let hash =
                if required.Phys_prop.order <> [] then []
                else
                  [
                    choice (Physical.Hash_aggregate (keys, aggs)) [ g ]
                      (unary_vectors Phys_prop.any);
                  ]
              in
              stream :: hash
            | _ -> []);
      }

    let implementations =
      [
        get_to_scan;
        get_to_index_scan;
        select_get_to_index_scan;
        select_to_filter;
        project_to_project;
        project_join_fuse;
        join_to_hash;
        join_to_merge;
        join_to_nested_loop;
        union_impl;
        intersect_impl;
        difference_impl;
        group_by_impl;
      ]

    let enforcers ~props ~required =
      let order = required.Phys_prop.order
      and distinct = required.Phys_prop.distinct
      and partitioning = required.Phys_prop.partitioning in
      let schema = props.Logical_props.schema in
      let order_valid = List.for_all (fun (c, _) -> Schema.mem schema c) order in
      (* Sorting runs per partition, so the relaxed requirement keeps
         the distribution constraint; likewise dedup. Exchanges relax
         the distribution and destroy order (except the order-merging
         gather). *)
      let sort_moves =
        if order <> [] && order_valid then
          [
            ( Physical.Sort order,
              { required with Phys_prop.order = [] },
              { Phys_prop.any with order } );
          ]
          @
          if distinct then
            [
              ( Physical.Sort_dedup order,
                { required with Phys_prop.order = []; distinct = false },
                { Phys_prop.any with order; distinct = true } );
            ]
          else []
        else []
      in
      let dedup_moves =
        if distinct && order = [] then
          [
            ( Physical.Hash_dedup,
              { required with Phys_prop.distinct = false },
              { Phys_prop.any with distinct = true } );
          ]
        else []
      in
      let exchange_moves =
        match partitioning with
        | Phys_prop.Any_part -> []
        | Phys_prop.Hashed cols ->
          if List.for_all (fun c -> Schema.mem schema c) cols then
            [
              ( Physical.Repartition cols,
                { Phys_prop.order = []; distinct; partitioning = Phys_prop.Any_part },
                { Phys_prop.any with partitioning = Phys_prop.Hashed cols } );
            ]
          else []
        | Phys_prop.Singleton ->
          [
            ( Physical.Gather,
              { Phys_prop.order = []; distinct; partitioning = Phys_prop.Any_part },
              { Phys_prop.any with partitioning = Phys_prop.Singleton } );
          ]
          @
          if order <> [] && order_valid then
            [
              ( Physical.Merge_gather order,
                { Phys_prop.order = order; distinct; partitioning = Phys_prop.Any_part },
                { Phys_prop.any with order; partitioning = Phys_prop.Singleton } );
            ]
          else []
      in
      sort_moves @ dedup_moves @ exchange_moves
  end in
  (module M : REL_MODEL)
