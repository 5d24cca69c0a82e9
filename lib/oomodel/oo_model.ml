open Oo_algebra
module Rule = Volcano.Rule

module type OO_MODEL =
  Volcano.Signatures.MODEL
    with type op = Oo_algebra.op
     and type alg = Oo_algebra.alg
     and type logical_props = Oo_algebra.props
     and type phys_props = Oo_algebra.phys
     and type cost = Relalg.Cost.t

type params = {
  random_io : float;
  assembly_io : float;
  assembly_setup : float;
  scan_io : float;
  cpu_test : float;
}

let default_params =
  {
    random_io = 0.01;
    assembly_io = 0.002;
    assembly_setup = 1.0;
    scan_io = 0.0005;
    cpu_test = 1e-6;
  }

let path_steps paths = List.fold_left (fun acc p -> acc + List.length p) 0 paths

let is_extent = function Extent _ -> true | O_select _ | Materialize _ -> false

let is_select = function O_select _ -> true | Extent _ | Materialize _ -> false

let is_materialize = function Materialize _ -> true | Extent _ | O_select _ -> false

(* Materialize cascade: MAT(P1, MAT(P2, x)) == MAT(P1 u P2, x). *)
let materialize_merge : (op, props) Rule.transform =
  {
    t_name = "materialize-merge";
    t_promise = 2;
    t_pattern = Rule.Op (is_materialize, [ Rule.Op (is_materialize, [ Rule.Any ]) ]);
    t_apply =
      (fun ~lookup:_ binding ->
        match binding with
        | Rule.Node (Materialize p1, [ Rule.Node (Materialize p2, [ x ]) ]) ->
          let union = Path_set.elements (Path_set.of_list (p1 @ p2)) in
          [ Rule.Node (Materialize union, [ x ]) ]
        | _ -> []);
  }

(* Select and materialize commute in both directions; the memo's
   duplicate detection and in-progress marking neutralize the inverse
   pair (§3: rules that "are inverses of each other"). *)
let select_past_materialize : (op, props) Rule.transform =
  {
    t_name = "select-past-materialize";
    t_promise = 1;
    t_pattern = Rule.Op (is_select, [ Rule.Op (is_materialize, [ Rule.Any ]) ]);
    t_apply =
      (fun ~lookup:_ binding ->
        match binding with
        | Rule.Node (O_select (p, sel), [ Rule.Node (Materialize ps, [ x ]) ]) ->
          [ Rule.Node (Materialize ps, [ Rule.Node (O_select (p, sel), [ x ]) ]) ]
        | _ -> []);
  }

let materialize_past_select : (op, props) Rule.transform =
  {
    t_name = "materialize-past-select";
    t_promise = 1;
    t_pattern = Rule.Op (is_materialize, [ Rule.Op (is_select, [ Rule.Any ]) ]);
    t_apply =
      (fun ~lookup:_ binding ->
        match binding with
        | Rule.Node (Materialize ps, [ Rule.Node (O_select (p, sel), [ x ]) ]) ->
          [ Rule.Node (O_select (p, sel), [ Rule.Node (Materialize ps, [ x ]) ]) ]
        | _ -> []);
  }

let make ~store ?(params = default_params) () : (module OO_MODEL) =
  let module M = struct
    let model_name = "object-algebra"

    type op = Oo_algebra.op

    let op_arity = Oo_algebra.op_arity
    let op_equal (a : op) (b : op) = a = b
    let op_hash (a : op) = Hashtbl.hash_param 100 256 a
    let op_name = Oo_algebra.op_name

    type alg = Oo_algebra.alg

    let alg_arity = Oo_algebra.alg_arity
    let alg_name = Oo_algebra.alg_name

    type logical_props = Oo_algebra.props

    let derive (o : op) (inputs : logical_props list) : logical_props =
      match o, inputs with
      | Extent c, [] -> { root = c; card = (find_class store c).extent_size; store }
      | O_select (_, sel), [ i ] -> { i with card = i.card *. sel }
      | Materialize _, [ i ] -> i
      | (Extent _ | O_select _ | Materialize _), _ ->
        invalid_arg "Oo_model.derive: arity mismatch"

    type phys_props = Oo_algebra.phys

    let pp_equal = Path_set.equal
    let pp_hash s = Hashtbl.hash (Path_set.elements s)
    let pp_covers = Oo_algebra.phys_covers

    let pp_to_string = Oo_algebra.phys_to_string

    type cost = Relalg.Cost.t

    let cost_zero = Relalg.Cost.zero
    let cost_infinite = Relalg.Cost.infinite
    let cost_is_infinite = Relalg.Cost.is_infinite
    let cost_add = Relalg.Cost.add
    let cost_sub = Relalg.Cost.sub
    let cost_compare = Relalg.Cost.compare
    let cost_to_string = Relalg.Cost.to_string

    let cost_of (alg : alg) ~(inputs : logical_props list)
        ~(input_props : phys_props list) ~(output : logical_props) =
      ignore input_props;
      let card = match inputs with i :: _ -> i.card | [] -> output.card in
      match alg with
      | Extent_scan _ -> Relalg.Cost.make ~io:(output.card *. params.scan_io) ~cpu:0.
      | O_filter _ -> Relalg.Cost.make ~io:0. ~cpu:(card *. params.cpu_test)
      | Pointer_chase ps ->
        Relalg.Cost.make
          ~io:(card *. Float.of_int (path_steps ps) *. params.random_io)
          ~cpu:0.
      | Assembly ps ->
        Relalg.Cost.make
          ~io:
            (params.assembly_setup
            +. (card *. Float.of_int (path_steps ps) *. params.assembly_io))
          ~cpu:(card *. params.cpu_test)

    let deliver (alg : alg) (inputs : phys_props list) : phys_props =
      let input = match inputs with i :: _ -> i | [] -> Path_set.empty in
      match alg with
      | Extent_scan _ -> Path_set.empty
      | O_filter _ -> input
      | Pointer_chase ps | Assembly ps -> Path_set.union input (Path_set.of_list ps)

    (* The always-sound trivial bound: guided pruning stays inert for
       this model (O_filter produces its output for pure CPU cost, so
       no output-proportional floor holds across all algorithms). *)
    let cost_lower_bound (_ : logical_props) (_ : phys_props) = Relalg.Cost.zero

    let transforms = [ materialize_merge; select_past_materialize; materialize_past_select ]

    let choice alg inputs alternatives =
      { Rule.c_alg = alg; c_inputs = inputs; c_alternatives = alternatives }

    let extent_impl : (op, alg, logical_props, phys_props) Rule.implement =
      {
        i_name = "extent->scan";
        i_promise = 3;
        i_pattern = Rule.Op (is_extent, []);
        i_apply =
          (fun ~lookup:_ ~required:_ binding ->
            match binding with
            | Rule.Node (Extent c, []) -> [ choice (Extent_scan c) [] [ [] ] ]
            | _ -> []);
      }

    let select_impl : (op, alg, logical_props, phys_props) Rule.implement =
      {
        i_name = "select->filter";
        i_promise = 2;
        i_pattern = Rule.Op (is_select, [ Rule.Any ]);
        i_apply =
          (fun ~lookup:_ ~required binding ->
            match binding with
            | Rule.Node (O_select (p, sel), [ Rule.Group g ]) ->
              (* The filter evaluates a path expression, so its input
                 must arrive with that path assembled, on top of
                 whatever the consumer requires. *)
              let need = Path_set.add p required in
              [ choice (O_filter (p, sel)) [ g ] [ [ need ] ] ]
            | _ -> []);
      }

    let materialize_impl : (op, alg, logical_props, phys_props) Rule.implement =
      {
        i_name = "materialize->chase|assembly";
        i_promise = 2;
        i_pattern = Rule.Op (is_materialize, [ Rule.Any ]);
        i_apply =
          (fun ~lookup:_ ~required binding ->
            match binding with
            | Rule.Node (Materialize ps, [ Rule.Group g ]) ->
              let provided = Path_set.of_list ps in
              let residual = Path_set.diff required provided in
              [
                choice (Pointer_chase ps) [ g ] [ [ residual ] ];
                choice (Assembly ps) [ g ] [ [ residual ] ];
              ]
            | _ -> []);
      }

    let implementations = [ extent_impl; select_impl; materialize_impl ]

    (* Two enforcers for the same property — mirroring the paper's
       uniqueness example with sort- and hash-based enforcers (§4.1):
       assembledness can be established navigationally (pointer chase)
       or by the batching assembly operator. *)
    let enforcers ~props ~required =
      ignore (props : logical_props);
      if Path_set.is_empty required then []
      else begin
        let paths = Path_set.elements required in
        [
          (Assembly paths, Path_set.empty, required);
          (Pointer_chase paths, Path_set.empty, required);
        ]
      end
  end in
  (module M : OO_MODEL)

type plan_node = {
  alg : Oo_algebra.alg;
  children : plan_node list;
  props : Oo_algebra.phys;
  cost : Relalg.Cost.t;
}

type result = {
  plan : plan_node option;
  stats : Volcano.Search_stats.t;
  memo_groups : int;
  memo_mexprs : int;
}

let optimize ~store ?params (query : Oo_algebra.op Volcano.Tree.t) ~required : result =
  let (module M : OO_MODEL) = make ~store ?params () in
  let module S = Volcano.Search.Make (M) in
  let opt = S.create () in
  let outcome = S.optimize opt query ~required in
  let rec convert (p : S.plan_tree) : plan_node =
    { alg = p.alg; children = List.map convert p.children; props = p.props; cost = p.cost }
  in
  {
    plan = Option.map convert outcome.plan;
    stats = outcome.search_stats;
    memo_groups = outcome.memo_groups;
    memo_mexprs = outcome.memo_mexprs;
  }

let explain p =
  let buffer = Buffer.create 256 in
  let rec go depth node =
    Buffer.add_string buffer
      (Printf.sprintf "%s%s  [%s; cost %s]\n" (String.make depth ' ')
         (Oo_algebra.alg_name node.alg)
         (Oo_algebra.phys_to_string node.props)
         (Relalg.Cost.to_string node.cost));
    List.iter (go (depth + 2)) node.children
  in
  go 0 p;
  Buffer.contents buffer
