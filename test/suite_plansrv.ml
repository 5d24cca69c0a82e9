(* Tests of the plan-cache and optimization service: fingerprint
   soundness, capacity and eviction, hit/miss/invalidation behavior,
   parameterized (Dynplan-backed) entries, and concurrent serving
   equivalence. *)

open Relalg

(* ---------- fingerprints ---------- *)

let key ?(parameterize = false) ?(required = Phys_prop.any) q =
  (fst (Plansrv.Fingerprint.of_query ~parameterize q ~required)).Plansrv.Fingerprint.key

let test_fingerprint_commutative_join () =
  let p = Expr.(col "r.a" =% col "s.a") in
  let a = Logical.join p (Logical.get "r") (Logical.get "s") in
  let b = Logical.join p (Logical.get "s") (Logical.get "r") in
  Alcotest.(check string) "swapped join inputs share a key" (key a) (key b);
  (* Swapped predicate orientation too. *)
  let c = Logical.join Expr.(col "s.a" =% col "r.a") (Logical.get "s") (Logical.get "r") in
  Alcotest.(check string) "swapped predicate operands share a key" (key a) (key c)

let test_fingerprint_commutative_setops () =
  let u1 = Logical.union (Logical.get "r") (Logical.get "s") in
  let u2 = Logical.union (Logical.get "s") (Logical.get "r") in
  Alcotest.(check string) "union commutes" (key u1) (key u2);
  let i1 = Logical.intersect (Logical.get "r") (Logical.get "s") in
  let i2 = Logical.intersect (Logical.get "s") (Logical.get "r") in
  Alcotest.(check string) "intersect commutes" (key i1) (key i2);
  let d1 = Logical.difference (Logical.get "r") (Logical.get "s") in
  let d2 = Logical.difference (Logical.get "s") (Logical.get "r") in
  Alcotest.(check bool) "difference does NOT commute" true (key d1 <> key d2)

let test_fingerprint_predicate_normal_form () =
  let sel p = Logical.select p (Logical.get "r") in
  let p1 = Expr.(col "r.a" >% int 5 &&% (col "r.b" =% int 2)) in
  let p2 = Expr.(col "r.b" =% int 2 &&% (int 5 <% col "r.a")) in
  Alcotest.(check string) "conjunct order and comparison orientation" (key (sel p1))
    (key (sel p2));
  let p3 = Expr.(col "r.a" >% int 6 &&% (col "r.b" =% int 2)) in
  Alcotest.(check bool) "different literal, different key" true
    (key (sel p1) <> key (sel p3));
  (* ... unless the literal is parameterized out. *)
  Alcotest.(check string) "parameterized keys erase the literal"
    (key ~parameterize:true (sel Expr.(col "r.a" >% int 5)))
    (key ~parameterize:true (sel Expr.(col "r.a" >% int 6)))

let test_fingerprint_required_props () =
  let q = Logical.get "r" in
  let k_any = key q in
  let k_sorted = key ~required:(Phys_prop.sorted (Sort_order.asc [ "r.a" ])) q in
  Alcotest.(check bool) "required properties are part of the key" true (k_any <> k_sorted)

(* Soundness over random workloads: commutative-join variants of the
   same query agree, and distinct queries get distinct keys. *)
let prop_fingerprint_sound =
  let gen = QCheck.Gen.(int_range 0 10_000) in
  Helpers.qcheck_case ~count:50 "fingerprint soundness on workload pairs"
    (QCheck.make QCheck.Gen.(pair gen gen))
    (fun (s1, s2) ->
      let q1 = (Workload.generate (Workload.spec ~n_relations:4 ~seed:s1 ())).logical in
      let q2 = (Workload.generate (Workload.spec ~n_relations:4 ~seed:s2 ())).logical in
      (* A commutative rewrite of q1: swap the inputs of every join. *)
      let rec flip (e : Logical.expr) =
        let inputs = List.map flip e.Logical.inputs in
        match e.Logical.op, inputs with
        | Logical.Join p, [ l; r ] -> Logical.mk (Logical.Join p) [ r; l ]
        | op, inputs -> Logical.mk op inputs
      in
      let variants_agree = key q1 = key (flip q1) in
      let distinct_queries_differ =
        let c1 = Plansrv.Fingerprint.canonicalize q1
        and c2 = Plansrv.Fingerprint.canonicalize q2 in
        Logical.equal c1 c2 = (key q1 = key q2)
      in
      variants_agree && distinct_queries_differ)

(* ---------- the service ---------- *)

let service ?(capacity = 64) ?parameterize catalog =
  let request = { (Relmodel.Optimizer.request catalog) with restore_columns = false } in
  Plansrv.create (Plansrv.config ~capacity ?parameterize request)

let explain_of (r : Plansrv.response) =
  match r.plan with
  | Some p -> Relmodel.Optimizer.explain p
  | None -> Alcotest.fail "response carries no plan"

let cost_of (r : Plansrv.response) =
  match r.plan with
  | Some p -> Cost.total p.cost
  | None -> Alcotest.fail "response carries no plan"

let join_rs =
  Expr.(Logical.join (col "r.a" =% col "s.a") (Logical.get "r") (Logical.get "s"))

let test_warm_hit_identical () =
  let catalog = Helpers.small_catalog () in
  let srv = service catalog in
  let w = Plansrv.worker srv in
  let first = Plansrv.serve_one srv w join_rs ~required:Phys_prop.any in
  let second = Plansrv.serve_one srv w join_rs ~required:Phys_prop.any in
  Alcotest.(check bool) "first is a miss" true (first.outcome = Plansrv.Miss);
  Alcotest.(check bool) "second is a hit" true (second.outcome = Plansrv.Hit);
  Alcotest.(check string) "identical plan" (explain_of first) (explain_of second);
  Alcotest.(check (float 0.)) "identical cost" (cost_of first) (cost_of second);
  (* Commutative variant served from the same entry. *)
  let flipped =
    Expr.(Logical.join (col "s.a" =% col "r.a") (Logical.get "s") (Logical.get "r"))
  in
  let third = Plansrv.serve_one srv w flipped ~required:Phys_prop.any in
  Alcotest.(check bool) "variant is a hit" true (third.outcome = Plansrv.Hit);
  Alcotest.(check string) "variant gets the canonical plan" (explain_of first)
    (explain_of third);
  (* And the cached plan is what direct optimization of the canonical
     form produces. *)
  let request = { (Relmodel.Optimizer.request catalog) with restore_columns = false } in
  let direct =
    Relmodel.Optimizer.optimize request
      (Plansrv.Fingerprint.canonicalize join_rs)
      ~required:Phys_prop.any
  in
  (match direct.plan with
   | Some p ->
     Alcotest.(check string) "cache = direct optimization"
       (Relmodel.Optimizer.explain p) (explain_of first)
   | None -> Alcotest.fail "direct optimization failed");
  let m = Plansrv.metrics srv in
  Alcotest.(check int) "2 hits" 2 m.hits;
  Alcotest.(check int) "1 miss" 1 m.misses;
  Alcotest.(check int) "1 entry" 1 m.entries

let test_eviction () =
  let catalog = Helpers.small_catalog () in
  let srv = service ~capacity:2 catalog in
  let w = Plansrv.worker srv in
  let q name = Logical.get name in
  List.iter
    (fun name -> ignore (Plansrv.serve_one srv w (q name) ~required:Phys_prop.any))
    [ "r"; "s"; "t" ];
  let m = Plansrv.metrics srv in
  Alcotest.(check int) "one eviction" 1 m.evictions;
  Alcotest.(check int) "population at capacity" 2 m.entries;
  (* The oldest insertion, "r", was evicted; it misses again. *)
  let again = Plansrv.serve_one srv w (q "r") ~required:Phys_prop.any in
  Alcotest.(check bool) "evicted entry misses" true (again.outcome = Plansrv.Miss)

(* Capacity bounds the whole cache: 8 distinct queries fit a capacity-8
   service, and the 9th evicts exactly one entry, the first inserted. *)
let test_capacity_exact () =
  let catalog = Helpers.small_catalog () in
  let srv = service ~capacity:8 catalog in
  let w = Plansrv.worker srv in
  let q c = Logical.select Expr.(col "t.c" <% int c) (Logical.get "t") in
  let serve c = (Plansrv.serve_one srv w (q c) ~required:Phys_prop.any).outcome in
  List.iter (fun c -> ignore (serve c)) [ 0; 8; 16; 24; 32; 40; 48; 56 ];
  let m = Plansrv.metrics srv in
  Alcotest.(check int) "no eviction at capacity" 0 m.evictions;
  Alcotest.(check int) "8 entries" 8 m.entries;
  Alcotest.(check bool) "a 9th query misses" true (serve 64 = Plansrv.Miss);
  let m = Plansrv.metrics srv in
  Alcotest.(check int) "one eviction" 1 m.evictions;
  Alcotest.(check int) "still 8 entries" 8 m.entries;
  List.iter
    (fun c ->
      Alcotest.(check bool) (Printf.sprintf "query %d kept" c) true (serve c = Plansrv.Hit))
    [ 8; 16; 24; 32; 40; 48; 56; 64 ];
  Alcotest.(check bool) "the oldest insertion misses" true (serve 0 = Plansrv.Miss);
  Alcotest.(check int) "two evictions" 2 (Plansrv.metrics srv).evictions

let test_stats_invalidation () =
  let catalog = Helpers.small_catalog () in
  let srv = service catalog in
  let w = Plansrv.worker srv in
  let q_rs = join_rs in
  let q_t = Logical.select Expr.(col "t.c" <% int 7) (Logical.get "t") in
  let serve q = Plansrv.serve_one srv w q ~required:Phys_prop.any in
  ignore (serve q_rs);
  ignore (serve q_t);
  Alcotest.(check bool) "warm before the change" true ((serve q_rs).outcome = Plansrv.Hit);
  Alcotest.(check bool) "warm before the change" true ((serve q_t).outcome = Plansrv.Hit);
  (* Refresh t's statistics: only fingerprints referencing t go stale. *)
  Catalog.update_stats catalog ~table:"t" ();
  Alcotest.(check bool) "entry over r,s survives" true ((serve q_rs).outcome = Plansrv.Hit);
  let stale = serve q_t in
  Alcotest.(check bool) "entry over t was invalidated" true
    (stale.outcome = Plansrv.Invalidated);
  Alcotest.(check bool) "re-populated entry is warm again" true
    ((serve q_t).outcome = Plansrv.Hit);
  let m = Plansrv.metrics srv in
  Alcotest.(check int) "exactly one invalidation" 1 m.invalidations;
  Alcotest.(check int) "both entries live" 2 m.entries

let test_proactive_invalidation () =
  let catalog = Helpers.small_catalog () in
  let srv = service catalog in
  let w = Plansrv.worker srv in
  ignore (Plansrv.serve_one srv w join_rs ~required:Phys_prop.any);
  ignore (Plansrv.serve_one srv w (Logical.get "t") ~required:Phys_prop.any);
  Alcotest.(check int) "sweep drops only r-referencing entries" 1
    (Plansrv.invalidate_table srv "r");
  let m = Plansrv.metrics srv in
  Alcotest.(check int) "one entry left" 1 m.entries

let test_parameterized_entry () =
  let catalog = Catalog.create () in
  ignore
    (Catalog.add_synthetic catalog ~name:"fact"
       ~columns:
         [ ("k", Catalog.Uniform_int (0, 499)); ("v", Catalog.Uniform_int (0, 9_999)) ]
       ~rows:3_000 ~seed:31 ());
  ignore
    (Catalog.add_synthetic catalog ~name:"dim"
       ~columns:[ ("k", Catalog.Uniform_int (0, 499)); ("w", Catalog.Uniform_int (0, 99)) ]
       ~rows:1_500 ~seed:32 ());
  let query c =
    let open Expr in
    Logical.join
      (col "fact.k" =% col "dim.k")
      (Logical.select (Expr.Cmp (Expr.Le, col "fact.v", Expr.int c)) (Logical.get "fact"))
      (Logical.get "dim")
  in
  let srv = service ~parameterize:true catalog in
  let w = Plansrv.worker srv in
  let r1 = Plansrv.serve_one srv w (query 40) ~required:Phys_prop.any in
  Alcotest.(check bool) "first literal misses" true (r1.outcome = Plansrv.Miss);
  Alcotest.(check bool) "and is parameterized" true r1.parameterized;
  let r2 = Plansrv.serve_one srv w (query 7_000) ~required:Phys_prop.any in
  Alcotest.(check bool) "different literal hits the same template" true
    (r2.outcome = Plansrv.Hit);
  Alcotest.(check bool) "parameterized hit" true r2.parameterized;
  (* The served plans carry the actual literal and compute the right
     rows. *)
  List.iter
    (fun (r, c) ->
      match r.Plansrv.plan with
      | None -> Alcotest.fail "no plan"
      | Some plan ->
        let rows, _, _ = Executor.run catalog (Relmodel.Optimizer.to_physical plan) in
        let expected, _ = Executor.naive catalog (query c) in
        Helpers.check_same_bag (Printf.sprintf "literal %d" c) expected rows)
    [ (r1, 40); (r2, 7_000) ];
  let m = Plansrv.metrics srv in
  Alcotest.(check int) "one template entry" 1 m.entries;
  Alcotest.(check int) "both requests parameterized" 2 m.param_served

(* The headline guarantee: concurrent domains serving a shuffled
   workload return bit-identical plans and costs to sequential
   single-session optimization. *)
let test_concurrent_matches_sequential () =
  let base = Workload.generate (Workload.spec ~n_relations:5 ~seed:4242 ()) in
  let catalog = base.catalog in
  (* 20 distinct queries: join prefixes of the chain crossed with extra
     selections of varying constants. *)
  let rec prefixes (e : Logical.expr) acc =
    match e.Logical.op, e.Logical.inputs with
    | Logical.Join _, [ l; _ ] -> prefixes l (e :: acc)
    | _, _ -> acc
  in
  let spines = prefixes base.logical [] in
  let first_col = List.hd base.relations ^ ".jk1" in
  let uniques =
    List.concat_map
      (fun spine ->
        List.map
          (fun c -> Logical.select Expr.(col first_col >=% int c) spine)
          [ 0; 3; 7; 11; 19 ])
      spines
  in
  let uniques = List.filteri (fun i _ -> i < 20) uniques in
  Alcotest.(check int) "20 unique queries" 20 (List.length uniques);
  (* 200 requests: each query 10 times, deterministically shuffled. *)
  let rng = Random.State.make [| 99 |] in
  let requests =
    List.concat_map (fun q -> List.init 10 (fun _ -> q)) uniques
    |> List.map (fun q -> (Random.State.bits rng, q))
    |> List.sort compare
    |> List.map (fun (_, q) -> (q, Phys_prop.any))
    |> Array.of_list
  in
  let request = { (Relmodel.Optimizer.request catalog) with restore_columns = false } in
  (* Sequential single-session baseline over the canonical forms. *)
  let baseline = Hashtbl.create 32 in
  let session = Relmodel.Optimizer.session request in
  List.iter
    (fun q ->
      let fp, canonical = Plansrv.Fingerprint.of_query q ~required:Phys_prop.any in
      match (Relmodel.Optimizer.optimize_in session canonical ~required:Phys_prop.any).plan with
      | Some p ->
        Hashtbl.replace baseline fp.Plansrv.Fingerprint.key
          (Relmodel.Optimizer.explain p, Cost.total p.cost)
      | None -> Alcotest.fail "baseline optimization failed")
    uniques;
  let srv = Plansrv.create (Plansrv.config ~capacity:64 request) in
  let responses = Plansrv.serve ~workers:4 srv requests in
  Array.iteri
    (fun i (r : Plansrv.response) ->
      let expected_explain, expected_cost = Hashtbl.find baseline r.fingerprint in
      Alcotest.(check string)
        (Printf.sprintf "request %d: plan identical to sequential" i)
        expected_explain (explain_of r);
      Alcotest.(check (float 0.))
        (Printf.sprintf "request %d: cost identical to sequential" i)
        expected_cost (cost_of r))
    responses;
  (* No torn counters: every request accounted for exactly once. *)
  let m = Plansrv.metrics srv in
  Alcotest.(check int) "requests" 200 m.requests;
  Alcotest.(check int) "hits + misses = requests" 200 (m.hits + m.misses);
  Alcotest.(check int) "warm latencies = hits" m.hits m.warm.count;
  Alcotest.(check int) "cold latencies = misses" m.misses m.cold.count;
  Alcotest.(check bool)
    (Printf.sprintf "every unique query misses at least once (misses=%d)" m.misses)
    true (m.misses >= 20);
  Alcotest.(check int) "no invalidations" 0 m.invalidations

(* Proactive sweeps racing two serving domains never lose a request or
   a plan, and the cache stays within capacity. Statistics refreshes are
   not raced: the catalog's statistics are shared mutable state. *)
let test_invalidate_while_serving () =
  let catalog = Helpers.small_catalog () in
  let join_st =
    Logical.join Expr.(col "s.c" =% col "t.c") (Logical.get "s") (Logical.get "t")
  in
  let uniques =
    List.concat_map
      (fun c ->
        [
          Logical.select Expr.(col "r.b" <% int c) join_rs;
          Logical.select Expr.(col "t.c" <% int c) (Logical.get "t");
          Logical.select Expr.(col "s.a" <% int c) join_st;
        ])
      [ 1; 3; 5; 7 ]
  in
  let rng = Random.State.make [| 7 |] in
  let requests =
    List.concat_map (fun q -> List.init 10 (fun _ -> q)) uniques
    |> List.map (fun q -> (Random.State.bits rng, q))
    |> List.sort compare
    |> List.map (fun (_, q) -> (q, Phys_prop.any))
    |> Array.of_list
  in
  let n = Array.length requests in
  (* Capacity below the 12 distinct queries: evictions race the sweeps. *)
  let srv = service ~capacity:8 catalog in
  let stop = Atomic.make false in
  let sweeper =
    Domain.spawn (fun () ->
        let sweeps = ref 0 in
        while !sweeps = 0 || not (Atomic.get stop) do
          ignore (Plansrv.invalidate_table srv (List.nth [ "r"; "s"; "t" ] (!sweeps mod 3)));
          incr sweeps;
          Domain.cpu_relax ()
        done;
        !sweeps)
  in
  let responses = Plansrv.serve ~workers:2 srv requests in
  Atomic.set stop true;
  let sweeps = Domain.join sweeper in
  Alcotest.(check bool) (Printf.sprintf "%d sweeps ran" sweeps) true (sweeps > 0);
  Array.iteri
    (fun i (r : Plansrv.response) ->
      Alcotest.(check bool) (Printf.sprintf "request %d has a plan" i) true
        (Option.is_some r.plan))
    responses;
  let m = Plansrv.metrics srv in
  Alcotest.(check int) "requests" n m.requests;
  Alcotest.(check int) "hits + misses = requests" n (m.hits + m.misses);
  Alcotest.(check bool) (Printf.sprintf "%d entries within capacity" m.entries) true
    (m.entries <= 8);
  (* A sequential pass serves what sequential optimization produces. *)
  let request = { (Relmodel.Optimizer.request catalog) with restore_columns = false } in
  let session = Relmodel.Optimizer.session request in
  let sequential =
    Plansrv.serve srv (Array.of_list (List.map (fun q -> (q, Phys_prop.any)) uniques))
  in
  List.iteri
    (fun i q ->
      let canonical = Plansrv.Fingerprint.canonicalize q in
      match (Relmodel.Optimizer.optimize_in session canonical ~required:Phys_prop.any).plan with
      | Some p ->
        Alcotest.(check string)
          (Printf.sprintf "query %d: plan identical to sequential" i)
          (Relmodel.Optimizer.explain p) (explain_of sequential.(i))
      | None -> Alcotest.fail "sequential optimization failed")
    uniques

let test_serve_sequential_equals_concurrent_metrics () =
  (* The same batch served by 1 worker and by 4 workers yields the same
     plans (metrics like hit counts may differ only through duplicated
     concurrent misses). *)
  let catalog = Helpers.small_catalog () in
  let queries =
    [|
      (Logical.get "r", Phys_prop.any);
      (join_rs, Phys_prop.any);
      (Logical.get "r", Phys_prop.any);
      (join_rs, Phys_prop.any);
      (Logical.select Expr.(col "t.c" <% int 5) (Logical.get "t"), Phys_prop.any);
    |]
  in
  let run workers =
    let srv = service catalog in
    Plansrv.serve ~workers srv queries |> Array.map explain_of
  in
  Alcotest.(check (array string)) "1 worker = 4 workers" (run 1) (run 4)

(* ---------- the fingerprint memo ---------- *)

(* A query equal to one the cache answered, but built anew, finds the
   worker's memoized fingerprint: a hit under the same key. *)
let test_equal_query_hits () =
  let catalog = Helpers.small_catalog () in
  let srv = service catalog in
  let w = Plansrv.worker srv in
  let build () =
    Expr.(Logical.join (col "r.a" =% col "s.a") (Logical.get "r") (Logical.get "s"))
  in
  let q1 = build () and q2 = build () in
  Alcotest.(check bool) "distinct values" true (q1 != q2);
  let first = Plansrv.serve_one srv w q1 ~required:Phys_prop.any in
  Alcotest.(check bool) "a hit is memoized" true
    ((Plansrv.serve_one srv w q1 ~required:Phys_prop.any).outcome = Plansrv.Hit);
  let second = Plansrv.serve_one srv w q2 ~required:Phys_prop.any in
  Alcotest.(check bool) "the equal query is a hit" true (second.outcome = Plansrv.Hit);
  Alcotest.(check string) "same fingerprint" first.fingerprint second.fingerprint;
  let sorted =
    Plansrv.serve_one srv w q2 ~required:(Phys_prop.sorted (Sort_order.asc [ "r.a" ]))
  in
  Alcotest.(check bool) "other required properties miss" true (sorted.outcome = Plansrv.Miss);
  Alcotest.(check bool) "under another key" true (sorted.fingerprint <> first.fingerprint)

(* Parameterized serving: one template entry, and every request's plan
   instantiated with its own literal, however the requests repeat. *)
let test_parameterized_literals () =
  let catalog = Catalog.create () in
  ignore
    (Catalog.add_synthetic catalog ~name:"fact"
       ~columns:[ ("k", Catalog.Uniform_int (0, 99)); ("v", Catalog.Uniform_int (0, 999)) ]
       ~rows:800 ~seed:41 ());
  ignore
    (Catalog.add_synthetic catalog ~name:"dim"
       ~columns:[ ("k", Catalog.Uniform_int (0, 99)); ("w", Catalog.Uniform_int (0, 9)) ]
       ~rows:100 ~seed:42 ());
  let query c =
    Expr.(
      Logical.join
        (col "fact.k" =% col "dim.k")
        (Logical.get "fact")
        (Logical.select (Expr.Cmp (Expr.Le, col "dim.w", Expr.int c)) (Logical.get "dim")))
  in
  let srv = service ~parameterize:true catalog in
  let w = Plansrv.worker srv in
  let counts =
    List.map
      (fun c ->
        let r = Plansrv.serve_one srv w (query c) ~required:Phys_prop.any in
        Alcotest.(check bool) (Printf.sprintf "literal %d parameterized" c) true r.parameterized;
        match r.plan with
        | None -> Alcotest.fail "no plan"
        | Some plan ->
          let rows, schema, _ = Executor.run catalog (Relmodel.Optimizer.to_physical plan) in
          let expected, expected_schema = Executor.naive catalog (query c) in
          (* columns by name: the served plan may order them otherwise *)
          let by_name schema rows =
            let order = List.sort compare (Schema.names schema) in
            let idx = List.map (Schema.index_of schema) order in
            Array.map (fun row -> Array.of_list (List.map (Array.get row) idx)) rows
          in
          Helpers.check_same_bag (Printf.sprintf "literal %d" c)
            (by_name expected_schema expected) (by_name schema rows);
          Array.length rows)
      [ 5; 7; 5 ]
  in
  Alcotest.(check bool) "the literals select different rows" true
    (List.nth counts 0 <> List.nth counts 1);
  let m = Plansrv.metrics srv in
  Alcotest.(check int) "one template entry" 1 m.entries;
  Alcotest.(check int) "two hits" 2 m.hits

(* The statement memo survives a statistics refresh, which translation
   does not read; the plan cache still finds the stale plan. *)
let test_stats_refresh_keeps_statement () =
  let catalog = Helpers.small_catalog () in
  let srv = service catalog in
  let w = Plansrv.worker srv in
  let sql = "SELECT r.a, s.c FROM r, s WHERE r.a = s.a AND r.b < 3" in
  let serve () =
    let st = Sqlfront.parse catalog sql in
    (st, Plansrv.serve_one srv w st.logical ~required:st.required)
  in
  let _, r1 = serve () in
  let st2, r2 = serve () in
  Alcotest.(check bool) "miss then hit" true
    (r1.outcome = Plansrv.Miss && r2.outcome = Plansrv.Hit);
  Catalog.update_stats catalog ~table:"r" ();
  let st3, r3 = serve () in
  Alcotest.(check bool) "the statement is kept" true (st3 == st2);
  Alcotest.(check bool) "the stale plan is invalidated" true (r3.outcome = Plansrv.Invalidated);
  Alcotest.(check string) "under the same key" r1.fingerprint r3.fingerprint;
  let _, r4 = serve () in
  Alcotest.(check bool) "and warm again" true (r4.outcome = Plansrv.Hit)

(* Machine-neutral gate: a repeated statement's parse and cache hit
   allocate at most this many words. Re-parsing the text and
   re-serializing its canonical form read 1,362 here. *)
let repeated_statement_words_ceiling = 100.

let test_repeated_statement_allocation () =
  let catalog = Helpers.small_catalog () in
  let srv = service catalog in
  let w = Plansrv.worker srv in
  let sql = "SELECT r.a, s.c FROM r, s WHERE r.a = s.a AND r.b < 3 ORDER BY r.a" in
  let serve () =
    let st = Sqlfront.parse catalog sql in
    (Plansrv.serve_one srv w st.logical ~required:st.required).outcome
  in
  Alcotest.(check bool) "first is a miss" true (serve () = Plansrv.Miss);
  ignore (serve ());
  let outcome, words = Helpers.alloc_words serve in
  Alcotest.(check bool) "a hit" true (outcome = Plansrv.Hit);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words, ceiling %.0f" words repeated_statement_words_ceiling)
    true
    (words <= repeated_statement_words_ceiling)

let suite =
  [
    Alcotest.test_case "fingerprint: join commutes" `Quick test_fingerprint_commutative_join;
    Alcotest.test_case "fingerprint: set ops" `Quick test_fingerprint_commutative_setops;
    Alcotest.test_case "fingerprint: predicate NF" `Quick test_fingerprint_predicate_normal_form;
    Alcotest.test_case "fingerprint: required props" `Quick test_fingerprint_required_props;
    prop_fingerprint_sound;
    Alcotest.test_case "warm hit identical" `Quick test_warm_hit_identical;
    Alcotest.test_case "bounded cache evicts" `Quick test_eviction;
    Alcotest.test_case "capacity is exact" `Quick test_capacity_exact;
    Alcotest.test_case "stats bump invalidates" `Quick test_stats_invalidation;
    Alcotest.test_case "proactive sweep" `Quick test_proactive_invalidation;
    Alcotest.test_case "parameterized entries" `Quick test_parameterized_entry;
    Alcotest.test_case "concurrent = sequential" `Quick test_concurrent_matches_sequential;
    Alcotest.test_case "worker counts agree" `Quick test_serve_sequential_equals_concurrent_metrics;
    Alcotest.test_case "invalidate while serving" `Quick test_invalidate_while_serving;
    Alcotest.test_case "equal query hits" `Quick test_equal_query_hits;
    Alcotest.test_case "literals 5, 7, 5" `Quick test_parameterized_literals;
    Alcotest.test_case "stats refresh keeps statement" `Quick test_stats_refresh_keeps_statement;
    Alcotest.test_case "repeated statement allocation" `Quick test_repeated_statement_allocation;
  ]
