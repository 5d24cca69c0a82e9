(* The benchmark's four workloads: a catalog built from a seed, the
   distinct statements that set-up warms into the plan cache, and the
   measured statement schedule.

   The seed draws the table contents, the literals of the statements
   and the replay order. Table sizes, statement templates and the
   popularity ranks are fixed, so every seed asks for the same amount
   of work and the figures of different seeds are comparable. *)

type step =
  | Sql of string  (** one SQL statement: parse, serve, execute *)
  | Analyze of string  (** [Catalog.update_stats] on this table *)

type t = {
  name : string;
  tables : (string * int) list;  (** table name and row count *)
  catalog : unit -> Catalog.t;
      (** build and load the catalog; deterministic for the seed *)
  warm : string list;  (** distinct statements served once in set-up *)
  step : int -> step;  (** the [i]-th step of the measured schedule *)
  round : int;
      (** length of the schedule's first round: the counts and the
          plan-cost mean are taken over it, so they depend only on the
          seed and not on how many steps the run completes; a traced
          pass runs one round *)
  tail_pct : float;  (** percentile reported as the latency tail *)
  session : int option;
      (** [Some k]: the run serves its steps in sessions of [k] steps,
          each on a fresh service *)
}

let names = [ "plan_cache_hot"; "join_search"; "exec_heavy"; "stats_churn" ]

let sprintf = Printf.sprintf

let int_col lo hi = Catalog.Uniform_int (lo, hi)

let add cat ~seed name rows columns =
  ignore (Catalog.add_synthetic cat ~name ~columns ~rows ~seed ())

(* ---------- plan_cache_hot ---------- *)

(* Small OLTP tables: users 80, orders 300, items 600 rows. *)
let hot_tables = [ ("users", 80); ("orders", 300); ("items", 600) ]

let hot_catalog ~seed () =
  let cat = Catalog.create () in
  add cat ~seed "users" 80
    [ ("id", Catalog.Serial); ("age", int_col 18 80); ("city", int_col 0 9) ];
  add cat ~seed "orders" 300
    [
      ("id", Catalog.Serial); ("user_id", int_col 0 79); ("amount", int_col 1 500);
      ("status", int_col 0 3);
    ];
  add cat ~seed "items" 600
    [
      ("id", Catalog.Serial); ("order_id", int_col 0 299); ("qty", int_col 1 9);
      ("price", int_col 1 100);
    ];
  cat

(* Twenty templates, each with the literal range it draws from. A
   template gives two statements, with literals [v] and [v + 1] for a
   drawn [v], so there are always 40 distinct statements. Ranges are
   narrow where the literal sets the amount of work. *)
let hot_templates : (int * int * (int -> string)) list =
  [
    (0, 78, sprintf "SELECT * FROM users WHERE users.id = %d");
    (0, 298, sprintf "SELECT orders.amount FROM orders WHERE orders.id = %d");
    (0, 298, sprintf "SELECT items.qty, items.price FROM items WHERE items.order_id = %d");
    (68, 70, sprintf "SELECT users.city FROM users WHERE users.age > %d ORDER BY users.city");
    ( 0, 78,
      sprintf
        "SELECT orders.id, users.city FROM orders, users WHERE orders.user_id = users.id \
         AND users.id = %d" );
    ( 0, 298,
      sprintf
        "SELECT * FROM orders, users WHERE users.id = orders.user_id AND orders.id = %d" );
    ( 0, 298,
      sprintf
        "SELECT items.price, orders.status FROM items, orders WHERE items.order_id = \
         orders.id AND orders.id = %d" );
    ( 0, 78,
      sprintf
        "SELECT orders.status, COUNT(*) AS n FROM orders WHERE orders.user_id = %d GROUP \
         BY orders.status" );
    ( 24, 26,
      sprintf
        "SELECT users.city, COUNT(*) AS n FROM users WHERE users.age < %d GROUP BY \
         users.city" );
    (440, 444, sprintf "SELECT DISTINCT orders.status FROM orders WHERE orders.amount > %d");
    (11, 13, sprintf "SELECT DISTINCT items.qty FROM items WHERE items.order_id < %d");
    ( 0, 78,
      sprintf
        "SELECT orders.id, orders.amount FROM orders WHERE orders.user_id = %d ORDER BY \
         orders.amount DESC" );
    (0, 298, sprintf "SELECT items.id FROM items WHERE items.order_id = %d ORDER BY items.id");
    ( 0, 8,
      sprintf
        "SELECT orders.user_id FROM orders WHERE orders.status = 1 AND orders.amount > 470 \
         INTERSECT SELECT users.id FROM users WHERE users.city = %d" );
    ( 24, 26,
      sprintf
        "SELECT users.id FROM users WHERE users.age < %d INTERSECT SELECT orders.user_id \
         FROM orders WHERE orders.amount > 490" );
    ( 3, 5,
      sprintf
        "SELECT orders.status, SUM(orders.amount) AS total FROM orders WHERE \
         orders.user_id < %d GROUP BY orders.status" );
    ( 0, 598,
      sprintf
        "SELECT * FROM items, orders, users WHERE items.order_id = orders.id AND \
         orders.user_id = users.id AND items.id = %d" );
    ( 0, 8,
      sprintf
        "SELECT users.age FROM users WHERE users.city = %d AND users.age < 40 ORDER BY \
         users.age" );
    (0, 298, sprintf "SELECT COUNT(*) AS n FROM items WHERE items.order_id = %d");
    ( 9, 11,
      sprintf
        "SELECT DISTINCT users.city FROM users, orders WHERE users.id = orders.user_id \
         AND orders.id < %d" );
  ]

(* Zipf popularity with exponent 1 over the fixed rank order of the
   statements: statement [k] appears in proportion to 1/(k+1). The counts
   are fixed and the seed only shuffles the order, so every seed replays
   the same mix. *)
let zipf_schedule ~seed statements len =
  let n = Array.length statements in
  let h = ref 0. in
  for k = 1 to n do
    h := !h +. (1. /. float_of_int k)
  done;
  let counts =
    Array.init n (fun k ->
        max 1 (int_of_float (Float.round (float_of_int len /. (float_of_int (k + 1) *. !h)))))
  in
  let schedule = Array.concat (Array.to_list (Array.mapi (fun k c -> Array.make c statements.(k)) counts)) in
  let rng = Random.State.make [| seed; 17 |] in
  for i = Array.length schedule - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = schedule.(i) in
    schedule.(i) <- schedule.(j);
    schedule.(j) <- t
  done;
  schedule

let hot ~seed =
  let rng = Random.State.make [| seed; 3 |] in
  let statements =
    Array.of_list
      (List.concat_map
         (fun (lo, hi, sql) ->
           let v = lo + Random.State.int rng (hi - lo) in
           [ sql v; sql (v + 1) ])
         hot_templates)
  in
  let schedule = zipf_schedule ~seed statements 4000 in
  let round = Array.length schedule in
  {
    name = "plan_cache_hot";
    tables = hot_tables;
    catalog = hot_catalog ~seed;
    warm = Array.to_list statements;
    step = (fun i -> Sql schedule.(i mod round));
    round;
    tail_pct = 99.9;
    session = None;
  }

(* ---------- join_search ---------- *)

(* 24 tiny tables j0..j23 of 12-30 rows; every table has a key [id],
   three foreign-key-like columns a, b, c drawn over 0..19 and a filter
   column d over 0..99. *)
let join_pool = 24

let join_rows k = 12 + (k * 7 mod 19)

let join_tables = List.init join_pool (fun k -> (sprintf "j%d" k, join_rows k))

let join_catalog ~seed () =
  let cat = Catalog.create () in
  List.iter
    (fun (name, rows) ->
      add cat ~seed name rows
        [
          ("id", Catalog.Serial); ("a", int_col 0 19); ("b", int_col 0 19);
          ("c", int_col 0 19); ("d", int_col 0 99);
        ])
    join_tables;
  cat

(* Join graphs over nodes 0..n-1. *)
let chain n = List.init (n - 1) (fun i -> (i, i + 1))

let star n = List.init (n - 1) (fun i -> (0, i + 1))

let cycle n = chain n @ [ (n - 1, 0) ]

let grid n =
  let cols = n / 2 in
  List.concat
    (List.init n (fun v ->
         let r = v / cols and c = v mod cols in
         (if c + 1 < cols then [ (v, v + 1) ] else [])
         @ if r = 0 && v + cols < n then [ (v, v + cols) ] else []))

(* center 0, heads 1..h, one sub-dimension per head while nodes last *)
let snowflake n =
  let heads = n / 2 in
  List.init heads (fun h -> (0, h + 1))
  @ List.init (n - 1 - heads) (fun s -> (s + 1, heads + 1 + s))

let clique n =
  List.concat (List.init n (fun i -> List.init (n - i - 1) (fun d -> (i, i + d + 1))))

(* The measured round: one statement per join-graph shape (chain 7,
   star 6, cycle 6, grid 6, snowflake 6, clique 5 relations), in a fixed
   order, at relation counts that keep each search near 0.1 s; the seed
   only picks which tables fill the nodes. *)
let join_shapes =
  [ (chain, 7); (star, 6); (cycle, 6); (grid, 6); (snowflake, 6); (clique, 5) ]

let join_statement ~seed i =
  let edges, n = List.nth join_shapes (i mod List.length join_shapes) in
  let rng = Random.State.make [| seed; 5; i |] in
  (* n distinct tables, in node order *)
  let picked = Array.make n "" in
  let used = Hashtbl.create 8 in
  for v = 0 to n - 1 do
    let rec draw () =
      let k = Random.State.int rng join_pool in
      if Hashtbl.mem used k then draw ()
      else begin
        Hashtbl.add used k ();
        sprintf "j%d" k
      end
    in
    picked.(v) <- draw ()
  done;
  let fk = [| "a"; "b"; "c" |] in
  let uses = Array.make n 0 in
  let preds =
    List.map
      (fun (u, v) ->
        let col = fk.(uses.(u) mod 3) in
        uses.(u) <- uses.(u) + 1;
        sprintf "%s.%s = %s.id" picked.(u) col picked.(v))
      (edges n)
  in
  (* the statement index in the literal keeps every statement distinct *)
  let filter = sprintf "%s.d < %d" picked.(0) (100 + i) in
  sprintf "SELECT * FROM %s WHERE %s"
    (String.concat ", " (Array.to_list picked))
    (String.concat " AND " (preds @ [ filter ]))

let join_search ~seed =
  {
    name = "join_search";
    tables = join_tables;
    catalog = join_catalog ~seed;
    warm = [];
    step = (fun i -> Sql (join_statement ~seed i));
    round = List.length join_shapes;
    tail_pct = 85.;
    (* The worker's session memo keeps every statement it optimized, so
       memory and per-task cost grow with the number of statements
       served. A fixed session length makes that growth the same in
       every run instead of depending on how fast the machine is. *)
    session = Some (3 * List.length join_shapes);
  }

(* ---------- exec_heavy ---------- *)

(* Analytic tables: fact 80k, dim 10k, other 40k rows. The filters on
   join inputs keep the naive reference's nested loops near 10^6 pairs. *)
let exec_tables = [ ("fact", 80_000); ("dim", 10_000); ("other", 40_000) ]

let exec_catalog ~seed () =
  let cat = Catalog.create () in
  add cat ~seed "fact" 80_000
    [
      ("id", Catalog.Serial); ("k", int_col 0 9_999); ("g", int_col 0 49);
      ("v", int_col 0 999); ("w", int_col 0 99);
    ];
  add cat ~seed "dim" 10_000
    [ ("id", Catalog.Serial); ("cat", int_col 0 19); ("x", int_col 0 999) ];
  add cat ~seed "other" 40_000
    [ ("id", Catalog.Serial); ("k", int_col 0 9_999); ("y", int_col 0 999) ];
  cat

(* Literals on the 0..999 columns move by at most 0.2% of a table with
   the seed; those on fact.w, whose 100 values each hold 1% of the rows,
   are fixed. *)
let exec_statements ~seed =
  let rng = Random.State.make [| seed; 7 |] in
  let r lo hi = lo + Random.State.int rng (hi - lo + 1) in
  [
    "SELECT fact.id, fact.v FROM fact WHERE fact.w < 20 ORDER BY fact.v";
    "SELECT fact.g, COUNT(*) AS n, SUM(fact.v) AS total FROM fact GROUP BY fact.g";
    sprintf
      "SELECT other.y, dim.cat FROM other, dim WHERE other.k = dim.id AND dim.x < %d"
      (r 9 11);
    sprintf
      "SELECT dim.id, other.y FROM dim, other WHERE dim.id = other.k AND dim.x < %d \
       AND other.y < 25 ORDER BY dim.id"
      (r 99 101);
    sprintf
      "SELECT fact.k FROM fact WHERE fact.w < 30 INTERSECT SELECT other.k FROM other \
       WHERE other.y < %d"
      (r 299 301);
    sprintf "SELECT DISTINCT fact.g, fact.w FROM fact WHERE fact.v < %d" (r 499 501);
    sprintf
      "SELECT other.k FROM other WHERE other.y < %d EXCEPT SELECT fact.k FROM fact WHERE \
       fact.w < 50"
      (r 499 501);
  ]

let exec_heavy ~seed =
  let statements = Array.of_list (exec_statements ~seed) in
  let n = Array.length statements in
  {
    name = "exec_heavy";
    tables = exec_tables;
    catalog = exec_catalog ~seed;
    warm = Array.to_list statements;
    step = (fun i -> Sql statements.(i mod n));
    round = 2 * n;
    tail_pct = 95.;
    session = None;
  }

(* ---------- stats_churn ---------- *)

(* Medium tables: c1 3000, c2 2000, c3 1500, c4 1000 rows. *)
let churn_tables = [ ("c1", 3000); ("c2", 2000); ("c3", 1500); ("c4", 1000) ]

let churn_catalog ~seed () =
  let cat = Catalog.create () in
  List.iter
    (fun (name, rows) ->
      add cat ~seed name rows
        [
          ("id", Catalog.Serial); ("fk", int_col 0 999); ("g", int_col 0 19);
          ("v", int_col 0 999);
        ])
    churn_tables;
  cat

let churn_statements ~seed =
  let rng = Random.State.make [| seed; 11 |] in
  let r lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let two a b =
    sprintf "SELECT %s.id, %s.v FROM %s, %s WHERE %s.fk = %s.id AND %s.v < %d" a b a b a b
      a (r 195 205)
  in
  let three a b c =
    sprintf
      "SELECT %s.id, %s.g, %s.v FROM %s, %s, %s WHERE %s.fk = %s.id AND %s.fk = %s.id AND \
       %s.v < %d AND %s.v < %d"
      a b c a b c a b b c a (r 245 255) c (r 495 505)
  in
  let four a b c d =
    sprintf
      "SELECT %s.g, COUNT(*) AS n FROM %s, %s, %s, %s WHERE %s.fk = %s.id AND %s.fk = %s.id \
       AND %s.fk = %s.id AND %s.v < %d AND %s.g < %d GROUP BY %s.g"
      a a b c d a b b c c d a (r 145 155) d 5 a
  in
  [
    two "c1" "c2"; two "c2" "c3"; two "c3" "c4"; two "c4" "c1"; two "c1" "c3";
    two "c2" "c4"; three "c1" "c2" "c3"; three "c2" "c3" "c4"; three "c4" "c1" "c2";
    three "c3" "c4" "c1"; four "c1" "c2" "c3" "c4"; four "c4" "c3" "c2" "c1";
  ]

(* Every [churn_every]-th step is an ANALYZE, rotating over the tables,
   so that about a third of the statements find their plan invalidated. *)
let churn_every = 24

let stats_churn ~seed =
  let statements = Array.of_list (churn_statements ~seed) in
  let n = Array.length statements in
  let tables = Array.of_list (List.map fst churn_tables) in
  let step i =
    if (i + 1) mod churn_every = 0 then
      Analyze tables.((i / churn_every) mod Array.length tables)
    else
      let k = i - (i / churn_every) in
      Sql statements.(k mod n)
  in
  (* one round analyzes every table once *)
  let round = churn_every * Array.length tables in
  {
    name = "stats_churn";
    tables = churn_tables;
    catalog = churn_catalog ~seed;
    warm = Array.to_list statements;
    step;
    round;
    tail_pct = 99.;
    session = None;
  }

let make name ~seed =
  match name with
  | "plan_cache_hot" -> Some (hot ~seed)
  | "join_search" -> Some (join_search ~seed)
  | "exec_heavy" -> Some (exec_heavy ~seed)
  | "stats_churn" -> Some (stats_churn ~seed)
  | _ -> None
