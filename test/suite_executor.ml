(* Unit tests for the Volcano iterator execution engine: each operator's
   semantics in isolation, plus I/O accounting. *)

open Relalg

let schema_rk : Schema.t =
  [| Schema.attribute "r.k" Schema.TInt; Schema.attribute "r.v" Schema.TInt |]

let schema_sk : Schema.t =
  [| Schema.attribute "s.k" Schema.TInt; Schema.attribute "s.w" Schema.TInt |]

let rows l : Tuple.t array = Array.of_list (List.map (fun (a, b) -> [| Value.Int a; Value.Int b |]) l)

let ints (t : Tuple.t) =
  Array.to_list t
  |> List.map (function Value.Int i -> i | v -> Alcotest.fail (Value.to_string v))

let run_cursor c = Array.to_list (Executor.Cursor.to_array c) |> List.map ints

let src schema l = Executor.Cursor.of_array schema (rows l)

let test_hash_join_duplicates () =
  (* Duplicate keys on both sides: output is the full group cross
     product. *)
  let left = src schema_rk [ (1, 10); (1, 11); (2, 20) ] in
  let right = src schema_sk [ (1, 100); (1, 101); (3, 300) ] in
  let c = Executor.Engine.hash_join [ ("r.k", "s.k") ] Expr.true_ left right in
  let out = run_cursor c in
  Alcotest.(check int) "2x2 matches for key 1" 4 (List.length out);
  List.iter
    (fun row -> match row with
       | [ k1; _; k2; _ ] -> Alcotest.(check int) "keys equal" k1 k2
       | _ -> Alcotest.fail "bad arity")
    out

let test_hash_join_residual () =
  let left = src schema_rk [ (1, 10); (1, 11) ] in
  let right = src schema_sk [ (1, 100) ] in
  let residual = Expr.(col "r.k" =% col "s.k" &&% (col "r.v" >% int 10)) in
  let c = Executor.Engine.hash_join [ ("r.k", "s.k") ] residual left right in
  Alcotest.(check int) "residual filters" 1 (List.length (run_cursor c))

let test_merge_join_groups () =
  (* Sorted inputs with duplicate key groups on both sides. *)
  let left = src schema_rk [ (1, 10); (2, 20); (2, 21); (4, 40) ] in
  let right = src schema_sk [ (2, 200); (2, 201); (3, 300); (4, 400) ] in
  let c = Executor.Engine.merge_join [ ("r.k", "s.k") ] Expr.true_ left right in
  let out = run_cursor c in
  (* key 2: 2x2 = 4; key 4: 1x1 = 1. *)
  Alcotest.(check int) "group cross products" 5 (List.length out)

let test_merge_equals_hash () =
  let ldata = [ (1, 1); (1, 2); (3, 3); (5, 4); (5, 5); (5, 6) ] in
  let rdata = [ (1, 9); (2, 8); (5, 7); (5, 6) ] in
  let mj =
    Executor.Engine.merge_join [ ("r.k", "s.k") ] Expr.true_ (src schema_rk ldata)
      (src schema_sk rdata)
  in
  let hj =
    Executor.Engine.hash_join [ ("r.k", "s.k") ] Expr.true_ (src schema_rk ldata)
      (src schema_sk rdata)
  in
  let sort = List.sort compare in
  Alcotest.(check bool) "same output" true (sort (run_cursor mj) = sort (run_cursor hj))

let test_nested_loop_rescan () =
  let left = src schema_rk [ (1, 10); (2, 20) ] in
  let right = src schema_sk [ (1, 100); (2, 200) ] in
  let c =
    Executor.Engine.nested_loop_join Expr.(col "r.k" =% col "s.k") left right
  in
  Alcotest.(check int) "both outer rows match" 2 (List.length (run_cursor c))

let test_sort_and_dedup () =
  let catalog = Catalog.create () in
  let ctx = Executor.Engine.context catalog in
  let input = src schema_rk [ (3, 1); (1, 1); (2, 1); (1, 1) ] in
  let sorted = Executor.Engine.sort_op ctx (Sort_order.asc [ "r.k" ]) ~dedup:false input in
  Alcotest.(check (list (list int))) "sorted with duplicates"
    [ [ 1; 1 ]; [ 1; 1 ]; [ 2; 1 ]; [ 3; 1 ] ]
    (run_cursor sorted);
  let input2 = src schema_rk [ (3, 1); (1, 1); (2, 1); (1, 1) ] in
  let deduped = Executor.Engine.sort_op ctx (Sort_order.asc [ "r.k" ]) ~dedup:true input2 in
  Alcotest.(check (list (list int))) "sort_dedup removes duplicates"
    [ [ 1; 1 ]; [ 2; 1 ]; [ 3; 1 ] ]
    (run_cursor deduped)

(* Sort_dedup keeps the first row, in input order, of each run of
   equal rows: [Int 1] equals [Float 1.], so which one survives shows. *)
let test_sort_dedup_keeps_first () =
  let ctx = Executor.Engine.context (Catalog.create ()) in
  let input : Tuple.t array =
    [|
      [| Value.Float 1.; Value.Int 0 |];
      [| Value.Int 2; Value.Int 0 |];
      [| Value.Int 1; Value.Int 0 |];
      [| Value.Float 2.; Value.Int 0 |];
      [| Value.Int 1; Value.Int 0 |];
    |]
  in
  let deduped =
    Executor.Engine.sort_op ctx (Sort_order.asc [ "r.k"; "r.v" ]) ~dedup:true
      (Executor.Cursor.of_array schema_rk input)
  in
  let out = Executor.Cursor.to_array deduped in
  Alcotest.(check int) "two distinct rows" 2 (Array.length out);
  Alcotest.(check bool) "first of the 1s kept" true (out.(0) == input.(0));
  Alcotest.(check bool) "first of the 2s kept" true (out.(1) == input.(1))

(* The merge sort's scratch array comes from the pool and goes back to
   it holding no rows. *)
let test_sort_scratch_pooled () =
  let n = 1000 in
  let rows = Array.init n (fun i -> [| Value.Int (n - i); Value.Int 0 |]) in
  let scratch = Executor.Array_pool.Rows.take (n / 2) in
  Executor.Array_pool.Rows.give scratch;
  Executor.Engine.sort_rows (Sort_order.compare_tuples schema_rk (Sort_order.asc [ "r.k" ])) rows n;
  Alcotest.(check (list int)) "sorted" (List.init n (fun i -> i + 1))
    (Array.to_list (Array.map (fun r -> List.hd (ints r)) rows));
  let again = Executor.Array_pool.Rows.take (n / 2) in
  Alcotest.(check bool) "the pooled scratch was used and given back" true (again == scratch);
  Alcotest.(check bool) "given back holding no rows" true
    (Array.for_all (fun r -> Array.length r = 0) again);
  Executor.Array_pool.Rows.give again

let test_hash_dedup () =
  let input = src schema_rk [ (1, 1); (2, 2); (1, 1); (2, 2); (3, 3) ] in
  let c = Executor.Engine.hash_dedup_op input in
  Alcotest.(check int) "distinct rows" 3 (List.length (run_cursor c))

let test_merge_setops_with_duplicates () =
  (* Sorted but NOT distinct inputs: merge set ops dedup on the fly. *)
  let l = src schema_rk [ (1, 0); (1, 0); (2, 0); (3, 0) ] in
  let r = src schema_rk [ (2, 0); (2, 0); (4, 0) ] in
  let union = Executor.Engine.merge_setop `Union l r in
  Alcotest.(check (list (list int))) "union"
    [ [ 1; 0 ]; [ 2; 0 ]; [ 3; 0 ]; [ 4; 0 ] ]
    (run_cursor union);
  let l2 = src schema_rk [ (1, 0); (1, 0); (2, 0); (3, 0) ] in
  let r2 = src schema_rk [ (2, 0); (2, 0); (4, 0) ] in
  let inter = Executor.Engine.merge_setop `Intersect l2 r2 in
  Alcotest.(check (list (list int))) "intersect" [ [ 2; 0 ] ] (run_cursor inter);
  let l3 = src schema_rk [ (1, 0); (1, 0); (2, 0); (3, 0) ] in
  let r3 = src schema_rk [ (2, 0); (2, 0); (4, 0) ] in
  let diff = Executor.Engine.merge_setop `Difference l3 r3 in
  Alcotest.(check (list (list int))) "difference" [ [ 1; 0 ]; [ 3; 0 ] ] (run_cursor diff)

let test_hash_setops () =
  let l () = src schema_rk [ (1, 0); (2, 0); (2, 0); (3, 0) ] in
  let r () = src schema_rk [ (2, 0); (4, 0) ] in
  let sort = List.sort compare in
  Alcotest.(check (list (list int))) "hash union"
    [ [ 1; 0 ]; [ 2; 0 ]; [ 3; 0 ]; [ 4; 0 ] ]
    (sort (run_cursor (Executor.Engine.hash_union (l ()) (r ()))));
  Alcotest.(check (list (list int))) "hash intersect" [ [ 2; 0 ] ]
    (sort (run_cursor (Executor.Engine.hash_semi ~anti:false (l ()) (r ()))));
  Alcotest.(check (list (list int))) "hash difference" [ [ 1; 0 ]; [ 3; 0 ] ]
    (sort (run_cursor (Executor.Engine.hash_semi ~anti:true (l ()) (r ()))))

let aggs =
  [
    { Logical.func = Logical.Count; column = None; alias = "n" };
    { Logical.func = Logical.Sum; column = Some "r.v"; alias = "sum_v" };
    { Logical.func = Logical.Min; column = Some "r.v"; alias = "min_v" };
    { Logical.func = Logical.Max; column = Some "r.v"; alias = "max_v" };
    { Logical.func = Logical.Avg; column = Some "r.v"; alias = "avg_v" };
  ]

let test_hash_aggregate () =
  let input = src schema_rk [ (1, 10); (1, 20); (2, 5) ] in
  let c = Executor.Engine.hash_aggregate [ "r.k" ] aggs input in
  let out = Array.to_list (Executor.Cursor.to_array c) in
  Alcotest.(check int) "two groups" 2 (List.length out);
  let g1 = List.find (fun t -> Value.equal t.(0) (Value.Int 1)) out in
  Alcotest.(check bool) "count" true (Value.equal g1.(1) (Value.Int 2));
  Alcotest.(check bool) "sum" true (Value.equal g1.(2) (Value.Int 30));
  Alcotest.(check bool) "min" true (Value.equal g1.(3) (Value.Int 10));
  Alcotest.(check bool) "max" true (Value.equal g1.(4) (Value.Int 20));
  Alcotest.(check bool) "avg" true (Value.equal g1.(5) (Value.Float 15.))

let test_stream_aggregate_matches_hash () =
  let data = [ (1, 10); (1, 20); (2, 5); (3, 1); (3, 2); (3, 3) ] in
  let h = Executor.Engine.hash_aggregate [ "r.k" ] aggs (src schema_rk data) in
  let s = Executor.Engine.stream_aggregate [ "r.k" ] aggs (src schema_rk data) in
  let arr c = Array.to_list (Executor.Cursor.to_array c) |> List.map Array.to_list in
  Alcotest.(check bool) "same groups" true
    (List.sort compare (arr h) = List.sort compare (arr s))

let test_aggregate_nulls () =
  let data : Tuple.t array =
    [| [| Value.Int 1; Value.Null |]; [| Value.Int 1; Value.Int 5 |] |]
  in
  let input = Executor.Cursor.of_array schema_rk data in
  let c =
    Executor.Engine.hash_aggregate [ "r.k" ]
      [
        { Logical.func = Logical.Count; column = Some "r.v"; alias = "nv" };
        { Logical.func = Logical.Count; column = None; alias = "n" };
        { Logical.func = Logical.Sum; column = Some "r.v"; alias = "s" };
      ]
      input
  in
  match Array.to_list (Executor.Cursor.to_array c) with
  | [ row ] ->
    Alcotest.(check bool) "count(col) skips null" true (Value.equal row.(1) (Value.Int 1));
    Alcotest.(check bool) "count(*) keeps null" true (Value.equal row.(2) (Value.Int 2));
    Alcotest.(check bool) "sum skips null" true (Value.equal row.(3) (Value.Int 5))
  | _ -> Alcotest.fail "expected a single group"

let test_empty_group_by_all () =
  (* Grouping by no keys: one row even over multiple inputs (grand
     total); zero rows over empty input (SQL's empty grouping). *)
  let c =
    Executor.Engine.hash_aggregate []
      [ { Logical.func = Logical.Count; column = None; alias = "n" } ]
      (src schema_rk [ (1, 1); (2, 2) ])
  in
  (match Array.to_list (Executor.Cursor.to_array c) with
   | [ row ] -> Alcotest.(check bool) "count 2" true (Value.equal row.(0) (Value.Int 2))
   | _ -> Alcotest.fail "expected one total row")

let test_io_accounting () =
  let catalog = Catalog.create () in
  ignore
    (Catalog.add_synthetic catalog ~name:"big"
       ~columns:[ ("k", Catalog.Serial); ("v", Catalog.Uniform_int (0, 9)) ]
       ~rows:10_000 ~seed:1 ());
  let plan = Physical.mk (Physical.Table_scan "big") [] in
  let _, _, io = Executor.run catalog plan in
  (* 10,000 rows x 16 bytes = 160,000 bytes = 40 pages of 4096. *)
  Alcotest.(check int) "page reads" 40 io.Executor.Io_stats.page_reads;
  (* A spilling sort writes and re-reads its input. *)
  let sorted = Physical.mk (Physical.Sort (Sort_order.asc [ "big.v" ])) [ plan ] in
  let _, _, io2 = Executor.run ~memory_pages:8 catalog sorted in
  Alcotest.(check int) "spill writes" 40 io2.Executor.Io_stats.page_writes;
  Alcotest.(check int) "spill re-reads" 80 io2.Executor.Io_stats.page_reads;
  let _, _, io3 = Executor.run ~memory_pages:1024 catalog sorted in
  Alcotest.(check int) "in-memory sort has no spill" 0 io3.Executor.Io_stats.page_writes

(* Rows with their constructors, so [Int 1] and [Float 1.] differ. *)
let show (t : Tuple.t) =
  String.concat ","
    (Array.to_list
       (Array.map
          (function
            | Value.Null -> "N"
            | Value.Int i -> "i" ^ string_of_int i
            | Value.Float f -> "f" ^ string_of_float f
            | v -> Value.to_string v)
          t))

let shown c = List.map show (Array.to_list (Executor.Cursor.to_array c))

let test_cursor_reopen () =
  (* Cursors are restartable: open, drain and close twice give the same
     rows, for the scan and for every hash operator. *)
  let l () = src schema_rk [ (1, 1); (2, 2); (2, 2); (3, 3); (1, 1) ] in
  let r () = src schema_rk [ (2, 2); (4, 4); (1, 1) ] in
  let s () = src schema_sk [ (1, 10); (2, 20); (1, 11) ] in
  let cases =
    [
      ("scan", l ());
      ("hash join", Executor.Engine.hash_join [ ("r.k", "s.k") ] Expr.true_ (l ()) (s ()));
      ("hash intersect", Executor.Engine.hash_semi ~anti:false (l ()) (r ()));
      ("hash difference", Executor.Engine.hash_semi ~anti:true (l ()) (r ()));
      ("hash union", Executor.Engine.hash_union (l ()) (r ()));
      ("hash dedup", Executor.Engine.hash_dedup_op (l ()));
      ("hash aggregate", Executor.Engine.hash_aggregate [ "r.k" ] aggs (l ()));
    ]
  in
  List.iter
    (fun (name, c) ->
      let first = shown c in
      Alcotest.(check bool) (name ^ " has rows") true (first <> []);
      Alcotest.(check (list string)) (name ^ " re-open") first (shown c))
    cases

(* Inputs for the algorithm-independence properties: two-column rows
   whose first column is NULL, an Int or an integral Float, so [Int 1]
   meets [Float 1.]. *)
let gen_rows =
  let key =
    QCheck.Gen.(
      oneof
        [
          return Value.Null;
          map (fun i -> Value.Int i) (int_range 0 3);
          map (fun i -> Value.Float (float_of_int i)) (int_range 0 3);
        ])
  in
  let row = QCheck.Gen.map2 (fun k v -> [| k; Value.Int v |]) key (QCheck.Gen.int_range 0 1) in
  let rows = QCheck.Gen.(list_size (int_range 0 8) row) in
  let print (a, b) = String.concat " " (List.map show (a @ [ [| Value.Str "|" |] ] @ b)) in
  QCheck.make ~print (QCheck.Gen.pair rows rows)

let cursor schema rows = Executor.Cursor.of_array schema (Array.of_list rows)

(* The rows sorted on their first [n] columns, as merge algorithms need. *)
let sorted n schema rows =
  let cols = List.filteri (fun i _ -> i < n) (Schema.names schema) in
  let a = Array.of_list rows in
  Array.sort (Sort_order.compare_tuples schema (Sort_order.asc cols)) a;
  Executor.Cursor.of_array schema a

(* Inputs for the sort property: rows of two key columns holding NULL,
   an Int or an integral Float (so [Int 1] ties [Float 1.]) and a third
   holding the row's input position; an order of one to three keys,
   each ascending or descending; and the input's layout. *)
let schema_sort : Schema.t =
  [|
    Schema.attribute "t.a" Schema.TInt;
    Schema.attribute "t.b" Schema.TInt;
    Schema.attribute "t.pos" Schema.TInt;
  |]

let gen_sort_case =
  let open QCheck.Gen in
  let value =
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) (int_range 0 4);
        map (fun i -> Value.Float (float_of_int i)) (int_range 0 4);
      ]
  in
  let key = pair (oneofl [ "t.a"; "t.b"; "t.pos" ]) (oneofl [ Sort_order.Asc; Sort_order.Desc ]) in
  let* layout = oneofl [ `Random; `Sorted; `Reversed; `Equal ] in
  let* order = list_size (int_range 1 3) key in
  let* n = oneof [ int_range 0 40; int_range 0 3000 ] in
  let* keys = list_repeat n (pair value value) in
  let cmp = Sort_order.compare_tuples schema_sort order in
  let row (a, b) = [| a; b; Value.Int 0 |] in
  let rows =
    match layout, keys with
    | `Random, _ -> List.map row keys
    | `Sorted, _ -> List.stable_sort cmp (List.map row keys)
    | `Reversed, _ -> List.rev (List.stable_sort cmp (List.map row keys))
    | `Equal, [] -> []
    | `Equal, k :: _ -> List.map (fun _ -> row k) keys
  in
  return (layout, order, List.mapi (fun i r -> (r.(2) <- Value.Int i; r)) rows)

let print_sort_case (layout, order, rows) =
  Printf.sprintf "%s, %d rows, order %s"
    (match layout with
     | `Random -> "random"
     | `Sorted -> "sorted"
     | `Reversed -> "reversed"
     | `Equal -> "all equal")
    (List.length rows)
    (Format.asprintf "%a" Sort_order.pp order)

(* The executor's sort is [List.stable_sort]: the same rows, rows that
   tie on the keys in input order. *)
let prop_sort_stable =
  Helpers.qcheck_case ~count:200 "sort equals List.stable_sort"
    (QCheck.make ~print:print_sort_case gen_sort_case)
    (fun (_, order, rows) ->
      let cmp = Sort_order.compare_tuples schema_sort order in
      let a = Array.of_list rows in
      Executor.Engine.sort_rows cmp a (Array.length a);
      List.for_all2 ( == ) (List.stable_sort cmp rows) (Array.to_list a))

let prop_joins_agree =
  Helpers.qcheck_case ~count:300 "nested-loop, hash and merge join agree" gen_rows
    (fun (ls, rs) ->
      let bag c = List.sort compare (shown c) in
      let keys = [ ("r.k", "s.k") ] in
      let nl =
        Executor.Engine.nested_loop_join Expr.(col "r.k" =% col "s.k") (cursor schema_rk ls)
          (cursor schema_sk rs)
      in
      let hj =
        Executor.Engine.hash_join keys Expr.true_ (cursor schema_rk ls) (cursor schema_sk rs)
      in
      let mj =
        Executor.Engine.merge_join keys Expr.true_ (sorted 1 schema_rk ls) (sorted 1 schema_sk rs)
      in
      bag nl = bag hj && bag hj = bag mj)

let prop_setops_agree =
  Helpers.qcheck_case ~count:300 "hash and merge set operations agree" gen_rows
    (fun (ls, rs) ->
      (* Compared under [Value.equal]: a set keeps one of [Int 1] and
         [Float 1.], and which one may differ between algorithms. *)
      let set c =
        Executor.Cursor.to_array c |> Array.to_list
        |> List.map (fun t -> List.map Value.to_string (Array.to_list t))
        |> List.sort compare
      in
      let hash op = set (op (cursor schema_rk ls) (cursor schema_rk rs)) in
      let merge kind =
        set (Executor.Engine.merge_setop kind (sorted 2 schema_rk ls) (sorted 2 schema_rk rs))
      in
      hash Executor.Engine.hash_union = merge `Union
      && hash (Executor.Engine.hash_semi ~anti:false) = merge `Intersect
      && hash (Executor.Engine.hash_semi ~anti:true) = merge `Difference)

let test_null_and_mixed_keys () =
  (* l.k in {NULL, 1, 2} and s.k in {NULL, 1.0, 2}: every join algorithm
     matches 1 with 1.0 and 2 with 2, and NULL with nothing. *)
  let row k v = [| k; Value.Int v |] in
  let l = [ row Value.Null 0; row (Value.Int 1) 0; row (Value.Int 2) 0 ] in
  let r = [ row Value.Null 1; row (Value.Float 1.) 1; row (Value.Int 2) 1 ] in
  let keys = [ ("r.k", "s.k") ] in
  let expected = [ "i1,i0,f1.,i1"; "i2,i0,i2,i1" ] in
  let check name c = Alcotest.(check (list string)) name expected (shown c) in
  check "nested loop"
    (Executor.Engine.nested_loop_join Expr.(col "r.k" =% col "s.k") (cursor schema_rk l)
       (cursor schema_sk r));
  check "hash join"
    (Executor.Engine.hash_join keys Expr.true_ (cursor schema_rk l) (cursor schema_sk r));
  check "merge join"
    (Executor.Engine.merge_join keys Expr.true_ (cursor schema_rk l) (cursor schema_sk r));
  Alcotest.(check int) "hash intersect {1} {1.0}" 1
    (List.length
       (shown
          (Executor.Engine.hash_semi ~anti:false
             (cursor schema_rk [ row (Value.Int 1) 0 ])
             (cursor schema_rk [ row (Value.Float 1.) 0 ]))))

let test_two_hash_operators_alive () =
  (* A hash join probing with a hash intersect: both indexes are in use
     at once, with arrays of the same lengths, so a recycled array
     shared between them would corrupt the result. Run twice, so the
     second run takes every array from the free lists. *)
  let l = List.init 100 (fun i -> (i mod 40, i mod 3)) in
  let r = List.init 90 (fun i -> ((i * 7) mod 50, i mod 3)) in
  let b = List.init 100 (fun i -> (i mod 60, i)) in
  let run () =
    shown
      (Executor.Engine.hash_join [ ("r.k", "s.k") ] Expr.true_
         (Executor.Engine.hash_semi ~anti:false (src schema_rk l) (src schema_rk r))
         (src schema_sk b))
  in
  (* Reference: the intersection in first-occurrence order, each row
     joined with its matches newest first. *)
  let inter =
    List.fold_left
      (fun acc x -> if List.mem x r && not (List.mem x acc) then acc @ [ x ] else acc)
      [] l
  in
  let expected =
    List.concat_map
      (fun (k, v) ->
        List.filter_map
          (fun (k', w) -> if k = k' then Some (Printf.sprintf "i%d,i%d,i%d,i%d" k v k' w) else None)
          (List.rev b))
      inter
  in
  Alcotest.(check bool) "join has rows" true (expected <> []);
  Alcotest.(check (list string)) "first run" expected (run ());
  Alcotest.(check (list string)) "second run" expected (run ())

let test_exception_mid_drain () =
  (* An observer hook raising mid-drain abandons the hash operators'
     arrays without giving them back; the next run on the domain must
     still be right. *)
  let catalog = Catalog.create () in
  List.iter
    (fun (name, seed) ->
      ignore
        (Catalog.add_synthetic catalog ~name
           ~columns:[ ("id", Catalog.Serial); ("k", Catalog.Uniform_int (0, 20)) ]
           ~rows:60 ~seed ()))
    [ ("p", 1); ("q", 2) ];
  let scan t = Physical.mk (Physical.Table_scan t) [] in
  let dedup t = Physical.mk Physical.Hash_dedup [ scan t ] in
  let plan =
    Physical.mk
      (Physical.Hash_join ([ ("p.k", "q.k") ], Expr.(col "p.k" =% col "q.k")))
      [ dedup "p"; dedup "q" ]
  in
  let rows () =
    let r, _, _ = Executor.run catalog plan in
    List.map show (Array.to_list r)
  in
  let before = rows () in
  Alcotest.(check bool) "plan has rows" true (List.length before > 10);
  let n = ref 0 in
  let observe ~path _ c =
    if path <> [] then c
    else Executor.Cursor.observed (fun _ -> incr n; if !n = 5 then raise Exit) c
  in
  let cursor =
    Executor.Engine.compile_instrumented (Executor.Engine.context catalog) ~observe plan
  in
  Alcotest.check_raises "hook aborts the drain" Exit (fun () ->
      ignore (Executor.Cursor.to_array cursor));
  Alcotest.(check (list string)) "next run" before (rows ());
  Alcotest.(check (list string)) "run after" before (rows ())

(* Machine-neutral gate: a nested-loop join tests each pair in place
   and concatenates only the pairs that pass, so a predicate that
   rejects all 60 x 50 pairs builds no joined tuple. Concatenating
   every pair first cost 5 words a pair, 15,000 here; what is left is
   the input cursors' options and the join's closures. *)
let rejecting_join_words_ceiling = 800.

let test_rejecting_join_allocation () =
  let left = rows (List.init 60 (fun i -> (i, i))) in
  let right = rows (List.init 50 (fun i -> (1000 + i, i))) in
  let drain () =
    let join =
      Executor.Engine.nested_loop_join
        Expr.(col "r.k" =% col "s.k")
        (Executor.Cursor.of_array schema_rk left)
        (Executor.Cursor.of_array schema_sk right)
    in
    let n = ref 0 in
    Executor.Cursor.iter (fun _ -> incr n) join;
    !n
  in
  Alcotest.(check int) "no pair passes" 0 (drain ());
  let n, used = Helpers.alloc_words drain in
  Alcotest.(check int) "no pair passes again" 0 n;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words <= %.0f" used rejecting_join_words_ceiling)
    true
    (used <= rejecting_join_words_ceiling)

let suite =
  [
    Alcotest.test_case "hash join duplicate keys" `Quick test_hash_join_duplicates;
    Alcotest.test_case "hash join residual predicate" `Quick test_hash_join_residual;
    Alcotest.test_case "merge join key groups" `Quick test_merge_join_groups;
    Alcotest.test_case "merge join == hash join" `Quick test_merge_equals_hash;
    Alcotest.test_case "nested loop" `Quick test_nested_loop_rescan;
    Alcotest.test_case "sort and sort_dedup" `Quick test_sort_and_dedup;
    Alcotest.test_case "sort_dedup keeps the first equal row" `Quick test_sort_dedup_keeps_first;
    Alcotest.test_case "sort scratch comes from the pool" `Quick test_sort_scratch_pooled;
    Alcotest.test_case "hash dedup" `Quick test_hash_dedup;
    Alcotest.test_case "merge set ops with duplicates" `Quick test_merge_setops_with_duplicates;
    Alcotest.test_case "hash set ops" `Quick test_hash_setops;
    Alcotest.test_case "hash aggregate" `Quick test_hash_aggregate;
    Alcotest.test_case "stream == hash aggregate" `Quick test_stream_aggregate_matches_hash;
    Alcotest.test_case "aggregate null handling" `Quick test_aggregate_nulls;
    Alcotest.test_case "grand total aggregate" `Quick test_empty_group_by_all;
    Alcotest.test_case "io accounting" `Quick test_io_accounting;
    Alcotest.test_case "cursor re-open" `Quick test_cursor_reopen;
    Alcotest.test_case "NULL and mixed-type join keys" `Quick test_null_and_mixed_keys;
    Alcotest.test_case "two hash operators alive at once" `Quick test_two_hash_operators_alive;
    Alcotest.test_case "exception mid-drain" `Quick test_exception_mid_drain;
    Alcotest.test_case "rejecting nested-loop join allocation" `Quick
      test_rejecting_join_allocation;
    prop_joins_agree;
    prop_setops_agree;
    prop_sort_stable;
  ]
