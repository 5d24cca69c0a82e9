(* The result oracle: every served result is checked against textbook
   evaluation of the statement ({!Executor.naive}), which involves no
   optimizer, plan cache or physical operator choice.

   Results are compared as multisets of rows keyed by column name. The
   plan service answers with the plan of the query's canonical form, so
   a served result may carry the statement's columns in another order,
   and a set operation whose operands the canonical form swapped carries
   the column names of the other operand. Both are accepted and counted
   (see {!judge}). *)

open Relalg

(* An order-independent digest of a multiset of rows: the row count and
   two sums of independent row hashes. *)
type digest = {
  rows : int;
  h1 : int;
  h2 : int;
}

(* What one served result looked like, reduced to what the comparison
   needs; cheap enough to take after every statement. *)
type observation = {
  by_name : digest;  (** columns visited in sorted name order *)
  by_position : digest;  (** columns visited in the result's own order *)
  columns : string list;  (** in the result's own order *)
  ordered : bool;  (** rows follow the statement's ORDER BY *)
}

type verdict =
  | Match of [ `Same | `Reordered | `Renamed ]
      (** [`Reordered]: the statement's columns in another order;
          [`Renamed]: a set operation whose columns carry the names of
          its other operand *)
  | Mismatch of string

(* Integral floats hash like the integer, so SUM/COUNT that one side
   computes in floats still match. *)
let value_hash seed (v : Value.t) =
  match v with
  | Value.Float f when Float.is_integer f && Float.abs f < 1e15 ->
    Hashtbl.seeded_hash seed (Value.Int (int_of_float f))
  | Value.Float f -> Hashtbl.seeded_hash seed (Value.Float (Float.round (f *. 1e6) /. 1e6))
  | v -> Hashtbl.seeded_hash seed v

let row_hash seed perm (row : Tuple.t) =
  Array.fold_left (fun h i -> (h * 1_000_003) lxor value_hash seed row.(i)) seed perm

let digest perm (rows : Tuple.t array) =
  let h1 = ref 0 and h2 = ref 0 in
  Array.iter
    (fun row ->
      h1 := !h1 + row_hash 0x2545 perm row;
      h2 := !h2 + row_hash 0x9e37 perm row)
    rows;
  { rows = Array.length rows; h1 = !h1; h2 = !h2 }

let digests (schema : Schema.t) rows =
  let names = Array.map (fun (a : Schema.attribute) -> a.name) schema in
  let identity = Array.init (Array.length names) Fun.id in
  let by_name = Array.copy identity in
  Array.stable_sort (fun i j -> String.compare names.(i) names.(j)) by_name;
  (digest by_name rows, digest identity rows)

(* Written here rather than borrowed from the program, so that a faulty
   comparator in the program cannot hide an unsorted result. *)
let ordered (schema : Schema.t) (order : Sort_order.t) (rows : Tuple.t array) =
  let position name =
    let rec go i =
      if i >= Array.length schema then None
      else if schema.(i).Schema.name = name then Some i
      else go (i + 1)
    in
    go 0
  in
  let keys = List.map (fun (name, dir) -> (position name, dir)) order in
  if List.exists (fun (p, _) -> p = None) keys then false
  else begin
    let keys = List.map (fun (p, dir) -> (Option.get p, dir)) keys in
    let cmp a b =
      List.fold_left
        (fun acc (i, dir) ->
          if acc <> 0 then acc
          else
            let c = Value.compare a.(i) b.(i) in
            match dir with Sort_order.Asc -> c | Sort_order.Desc -> -c)
        0 keys
    in
    let ok = ref true in
    for i = 1 to Array.length rows - 1 do
      if cmp rows.(i - 1) rows.(i) > 0 then ok := false
    done;
    !ok
  end

let observe ~(required : Phys_prop.t) schema rows =
  let by_name, by_position = digests schema rows in
  {
    by_name;
    by_position;
    columns = Schema.names schema;
    ordered = ordered schema required.Phys_prop.order rows;
  }

let dedup rows =
  let seen = Hashtbl.create (Array.length rows) in
  Array.of_seq
    (Seq.filter
       (fun row ->
         let key = Array.to_list row in
         if Hashtbl.mem seen key then false
         else begin
           Hashtbl.add seen key ();
           true
         end)
       (Array.to_seq rows))

(* The reference honours the statement's physical requirements: DISTINCT
   lives in [required], not in the logical tree, so the naive result is
   deduplicated here. Its order is not checked; the served one is. *)
let reference ~(required : Phys_prop.t) schema rows =
  let rows = if required.Phys_prop.distinct then dedup rows else rows in
  let by_name, by_position = digests schema rows in
  { by_name; by_position; columns = Schema.names schema; ordered = true }

(* Rows are compared as multisets keyed by column name. A set
   operation's columns are positional in SQL, so when [set_op] holds
   and the names differ, the rows are compared by position instead. *)
let judge ~set_op ~reference served =
  let sorted l = List.sort String.compare l in
  let same_names = sorted reference.columns = sorted served.columns in
  let renamed =
    (not same_names) && set_op
    && List.length reference.columns = List.length served.columns
  in
  let compare_rows (ref_d : digest) (d : digest) kind =
    if d.rows <> ref_d.rows then
      Mismatch (Printf.sprintf "%d rows, expected %d" d.rows ref_d.rows)
    else if d <> ref_d then Mismatch "row contents differ"
    else Match kind
  in
  if not served.ordered then Mismatch "rows are not in ORDER BY order"
  else if same_names then
    compare_rows reference.by_name served.by_name
      (if served.columns = reference.columns then `Same else `Reordered)
  else if renamed then compare_rows reference.by_position served.by_position `Renamed
  else
    Mismatch
      (Printf.sprintf "columns [%s], expected [%s]" (String.concat ", " served.columns)
         (String.concat ", " reference.columns))

let is_set_op (e : Logical.expr) =
  match e.op with
  | Logical.Union | Logical.Intersect | Logical.Difference -> true
  | Logical.Get _ | Logical.Select _ | Logical.Project _ | Logical.Join _
  | Logical.Group_by _ ->
    false

(* ---------- a cheap equivalent expression for the reference ---------- *)

let table_of column =
  match String.index_opt column '.' with
  | Some i -> String.sub column 0 i
  | None -> column

(* The parser emits [Select (where, cross-product spine)], which naive
   evaluation would expand to the full product of the FROM tables. This
   rebuilds the spine in FROM order with every conjunct applied as soon
   as the tables it mentions are joined: single-table conjuncts become
   selections on the table, the others join predicates. Pure relational
   algebra, independent of the optimizer's rules. *)
let rec push_down (e : Logical.expr) : Logical.expr =
  match e.op, e.inputs with
  | Logical.Select pred, [ input ] -> begin
    match spine input with
    | Some tables -> join_tables tables (Expr.conjuncts pred)
    | None -> Logical.select pred (push_down input)
  end
  | _, inputs -> Logical.mk e.op (List.map push_down inputs)

and spine (e : Logical.expr) =
  match e.op, e.inputs with
  | Logical.Get name, [] -> Some [ name ]
  | Logical.Join pred, [ l; r ] when Expr.conjuncts pred = [] -> begin
    match spine l, spine r with
    | Some a, Some b -> Some (a @ b)
    | _, _ -> None
  end
  | _, _ -> None

and join_tables tables conjuncts =
  let covered seen c =
    List.for_all (fun col -> List.mem (table_of col) seen) (Expr.columns c)
  in
  let leaf name pending =
    let mine, rest = List.partition (covered [ name ]) pending in
    let get = Logical.get name in
    ((if mine = [] then get else Logical.select (Expr.conjoin mine) get), rest)
  in
  match tables with
  | [] -> invalid_arg "Oracle.push_down: empty FROM"
  | first :: rest ->
    let init, pending = leaf first conjuncts in
    let acc, _, pending =
      List.fold_left
        (fun (acc, seen, pending) name ->
          let right, pending = leaf name pending in
          let seen = name :: seen in
          let here, pending = List.partition (covered seen) pending in
          (Logical.join (Expr.conjoin here) acc right, seen, pending))
        (init, [ first ], pending) rest
    in
    if pending = [] then acc else Logical.select (Expr.conjoin pending) acc
