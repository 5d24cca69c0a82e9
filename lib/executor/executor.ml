(** Volcano iterator-model execution engine: compiles physical plans
    into open/next/close cursors over the catalog's paged storage, with
    I/O accounting that mirrors the cost model. *)

module Array_pool = Array_pool
module Cursor = Cursor
module Engine = Engine
module Io_stats = Io_stats

(** [run catalog plan] executes a physical plan and returns its output
    tuples, their schema, and the I/O counters. *)
let run = Engine.run

(* Tuples compared with [Value.equal]: [Int 1] equals [Float 1.], and a
   NULL equals a NULL, as in set operations, DISTINCT and GROUP BY. *)
module Tuples = Hashtbl.Make (Relalg.Tuple)

(** Canonical naive execution of a {e logical} expression, used as a
    semantics oracle by tests: every operator is evaluated by its
    textbook set/bag definition, with no optimizer involved and no
    code shared with the engine's operators. *)
let rec naive catalog (e : Relalg.Logical.expr) : Relalg.Tuple.t array * Relalg.Schema.t =
  let open Relalg in
  match e.op, e.inputs with
  | Logical.Get name, [] ->
    let t = Catalog.find catalog name in
    (Array.copy t.tuples, t.schema)
  | Logical.Select pred, [ input ] ->
    let tuples, schema = naive catalog input in
    let keep = Expr.eval_pred schema pred in
    (Array.of_seq (Seq.filter keep (Array.to_seq tuples)), schema)
  | Logical.Project cols, [ input ] ->
    let tuples, schema = naive catalog input in
    let out_schema = Schema.project schema cols in
    (Array.map (Tuple.project schema cols) tuples, out_schema)
  | Logical.Join pred, [ l; r ] ->
    let lt, ls = naive catalog l in
    let rt, rs = naive catalog r in
    let schema = Schema.concat ls rs in
    let keep = Expr.eval_pred schema pred in
    let out = ref [] in
    Array.iter
      (fun a ->
        Array.iter
          (fun b ->
            let j = Tuple.concat a b in
            if keep j then out := j :: !out)
          rt)
      lt;
    (Array.of_list (List.rev !out), schema)
  | Logical.Union, [ l; r ] ->
    let lt, ls = naive catalog l in
    let rt, _ = naive catalog r in
    (dedup (Array.append lt rt), ls)
  | Logical.Intersect, [ l; r ] ->
    let lt, ls = naive catalog l in
    let rt, _ = naive catalog r in
    let right = tuple_set rt in
    (dedup (Array.of_seq (Seq.filter (Tuples.mem right) (Array.to_seq lt))), ls)
  | Logical.Difference, [ l; r ] ->
    let lt, ls = naive catalog l in
    let rt, _ = naive catalog r in
    let right = tuple_set rt in
    (dedup (Array.of_seq (Seq.filter (fun t -> not (Tuples.mem right t)) (Array.to_seq lt))), ls)
  | Logical.Group_by (keys, aggs), [ input ] ->
    let tuples, schema = naive catalog input in
    let kidx = List.map (Schema.index_of schema) keys in
    let groups = Tuples.create 64 and order = ref [] in
    Array.iter
      (fun t ->
        let k = Array.of_list (List.map (Tuple.get t) kidx) in
        match Tuples.find_opt groups k with
        | Some members -> members := t :: !members
        | None ->
          Tuples.add groups k (ref [ t ]);
          order := k :: !order)
      tuples;
    let row k =
      let members = List.rev !(Tuples.find groups k) in
      Array.append k (Array.of_list (List.map (aggregate schema members) aggs))
    in
    ( Array.of_list (List.rev_map row !order),
      Catalog.Plan_schema.aggregate_schema schema keys aggs )
  | (Logical.Get _ | Logical.Select _ | Logical.Project _ | Logical.Join _
    | Logical.Union | Logical.Intersect | Logical.Difference | Logical.Group_by _), _ ->
    invalid_arg "Executor.naive: arity mismatch"

(* One aggregate over a group's rows, straight from its definition:
   NULLs are skipped, except by COUNT without a column. *)
and aggregate schema members (a : Relalg.Logical.agg) =
  let open Relalg in
  match a.column with
  | None -> (match a.func with Logical.Count -> Value.Int (List.length members) | _ -> Value.Null)
  | Some c ->
    let i = Schema.index_of schema c in
    let vs =
      List.filter (fun v -> not (Value.is_null v)) (List.map (fun t -> Tuple.get t i) members)
    in
    let sum () = match vs with [] -> Value.Null | v :: rest -> List.fold_left Value.add v rest in
    let best better =
      match vs with
      | [] -> Value.Null
      | v :: rest -> List.fold_left (fun m v -> if better (Value.compare v m) then v else m) v rest
    in
    (match a.func with
     | Logical.Count -> Value.Int (List.length vs)
     | Logical.Sum -> sum ()
     | Logical.Min -> best (fun c -> c < 0)
     | Logical.Max -> best (fun c -> c > 0)
     | Logical.Avg -> (
       match Value.to_float (sum ()) with
       | Some s when vs <> [] -> Value.Float (s /. float_of_int (List.length vs))
       | Some _ | None -> Value.Null))

and dedup tuples =
  let seen = Tuples.create 64 in
  let out = ref [] in
  Array.iter
    (fun t ->
      if not (Tuples.mem seen t) then begin
        Tuples.add seen t ();
        out := t :: !out
      end)
    tuples;
  Array.of_list (List.rev !out)

and tuple_set tuples =
  let set = Tuples.create 64 in
  Array.iter (fun t -> Tuples.replace set t ()) tuples;
  set
