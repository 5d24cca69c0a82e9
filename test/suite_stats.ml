(* Tests for column statistics and selectivity estimation. *)

open Relalg

let schema : Schema.t =
  [| Schema.attribute "t.k" Schema.TInt; Schema.attribute "t.v" Schema.TInt |]

(* 100 rows: k = 0..99 (unique), v = k mod 10 (10 distinct). *)
let tuples = Array.init 100 (fun i -> [| Value.Int i; Value.Int (i mod 10) |])

let stats = Catalog.Stats.of_tuples schema tuples

let test_row_count () = Alcotest.(check (float 0.)) "rows" 100. stats.row_count

let test_distincts () =
  let k = Option.get (Catalog.Stats.column stats "t.k") in
  let v = Option.get (Catalog.Stats.column stats "t.v") in
  Alcotest.(check (float 0.)) "k distinct" 100. k.n_distinct;
  Alcotest.(check (float 0.)) "v distinct" 10. v.n_distinct

let test_min_max () =
  let k = Option.get (Catalog.Stats.column stats "t.k") in
  Alcotest.(check bool) "min" true (k.min_value = Some (Value.Int 0));
  Alcotest.(check bool) "max" true (k.max_value = Some (Value.Int 99))

let test_nulls () =
  let with_nulls =
    Array.append tuples [| [| Value.Null; Value.Int 1 |]; [| Value.Null; Value.Null |] |]
  in
  let s = Catalog.Stats.of_tuples schema with_nulls in
  let k = Option.get (Catalog.Stats.column s "t.k") in
  Alcotest.(check (float 0.)) "null count" 2. k.null_count;
  Alcotest.(check (float 0.)) "distinct excludes nulls" 100. k.n_distinct

let test_histogram_fraction () =
  let k = Option.get (Catalog.Stats.column stats "t.k") in
  let h = Option.get k.histogram in
  let half = Catalog.Stats.histogram_fraction h ~lo:None ~hi:(Some 49.5) in
  Alcotest.(check bool)
    (Printf.sprintf "about half below 49.5 (got %.3f)" half)
    true
    (half > 0.4 && half < 0.6);
  let all = Catalog.Stats.histogram_fraction h ~lo:None ~hi:None in
  Alcotest.(check bool) "full range is everything" true (all > 0.99)

(* The statistics [Stats.of_tuples] built before it scanned in one
   pass: each column as a list, a [Set] for the distinct count, a stable
   sort for the bounds, and the histogram folded over the numeric
   values. *)
let reference_of_tuples (schema : Schema.t) (tuples : Tuple.t array) : Catalog.Stats.t =
  let bucket_count = 16 in
  let build_histogram values =
    match values with
    | [] -> None
    | v0 :: _ ->
      let lo = List.fold_left Float.min v0 values in
      let hi = List.fold_left Float.max v0 values in
      if (not (Float.is_finite lo && Float.is_finite hi)) || hi <= lo then None
      else begin
        let buckets = Array.make bucket_count 0. in
        let width = (hi -. lo) /. Float.of_int bucket_count in
        let place v =
          let i = int_of_float ((v -. lo) /. width) in
          let i = if i >= bucket_count then bucket_count - 1 else i in
          buckets.(i) <- buckets.(i) +. 1.
        in
        List.iter place values;
        Some { Catalog.Stats.lo; hi; buckets }
      end
  in
  let column_stats_of_values values =
    let module VS = Set.Make (Value) in
    let non_null = List.filter (fun v -> not (Value.is_null v)) values in
    let nulls = List.length values - List.length non_null in
    let distinct = VS.cardinal (VS.of_list non_null) in
    let sorted = List.sort Value.compare non_null in
    let min_value = match sorted with [] -> None | v :: _ -> Some v in
    let max_value = match List.rev sorted with [] -> None | v :: _ -> Some v in
    let numeric = List.filter_map Value.to_float non_null in
    let histogram =
      if List.length numeric = List.length non_null then build_histogram numeric else None
    in
    {
      Catalog.Stats.n_distinct = Float.of_int distinct;
      null_count = Float.of_int nulls;
      min_value;
      max_value;
      histogram;
    }
  in
  let columns =
    Array.to_list schema
    |> List.mapi (fun i (attr : Schema.attribute) ->
           (attr.name, column_stats_of_values (Array.to_list (Array.map (fun t -> t.(i)) tuples))))
  in
  { row_count = Float.of_int (Array.length tuples); columns }

(* Field by field, floats by their bits (so [-0.] and [0.] differ) and
   values by constructor (so [Int 1] and [Float 1.] differ): a tie must
   return the same one of the tied values. *)
let same_stats (a : Catalog.Stats.t) (b : Catalog.Stats.t) =
  let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let same_value x y =
    match x, y with Value.Float x, Value.Float y -> same_float x y | _, _ -> x = y
  in
  let same_histogram (x : Catalog.Stats.histogram) (y : Catalog.Stats.histogram) =
    same_float x.lo y.lo && same_float x.hi y.hi
    && Array.length x.buckets = Array.length y.buckets
    && Array.for_all2 same_float x.buckets y.buckets
  in
  let same_column (na, (x : Catalog.Stats.column_stats)) (nb, (y : Catalog.Stats.column_stats)) =
    String.equal na nb && same_float x.n_distinct y.n_distinct
    && same_float x.null_count y.null_count
    && Option.equal same_value x.min_value y.min_value
    && Option.equal same_value x.max_value y.max_value
    && Option.equal same_histogram x.histogram y.histogram
  in
  same_float a.row_count b.row_count
  && List.length a.columns = List.length b.columns
  && List.for_all2 same_column a.columns b.columns

(* Columns of a few kinds: all NULL, one value (with NULLs), numbers
   only, and anything. Values come from small pools, so numbers tie
   across types ([Int 1], [Float 1.], [Float (-0.)] and [Int 0]) and
   strings and booleans repeat; NaN and the infinities appear too. *)
let gen_table =
  let open QCheck.Gen in
  let number =
    oneof
      [
        map (fun i -> Value.Int i) (int_range (-3) 3);
        map (fun i -> Value.Float (float_of_int i)) (int_range (-3) 3);
        oneofl [ Value.Float 0.5; Value.Float (-0.); Value.Float 2.5 ];
        oneofl [ Value.Float Float.nan; Value.Float Float.infinity; Value.Float Float.neg_infinity ];
      ]
  in
  let any =
    frequency
      [
        (2, return Value.Null);
        (1, map (fun b -> Value.Bool b) bool);
        (4, number);
        (2, map (fun s -> Value.Str s) (oneofl [ "a"; "b"; "c" ]));
      ]
  in
  let single = any >|= fun v -> oneofl [ v; v; Value.Null ] in
  let column =
    frequency
      [
        (1, return (return Value.Null));
        (1, single);
        (3, return (frequency [ (1, return Value.Null); (6, number) ]));
        (3, return any);
      ]
  in
  frequency [ (1, return 0); (8, int_range 1 40) ] >>= fun rows ->
  list_size (int_range 1 4) column >>= fun columns ->
  array_repeat rows (flatten_l columns) >|= fun tuples ->
  (List.length columns, Array.map Array.of_list tuples)

let prop_stats_match_reference =
  let show = function
    | Value.Int i -> Printf.sprintf "Int %d" i
    | Value.Float f -> Printf.sprintf "Float %g" f
    | v -> Value.to_string v
  in
  let print (_, tuples) =
    String.concat "\n"
      (Array.to_list
         (Array.map (fun t -> String.concat ", " (Array.to_list (Array.map show t))) tuples))
  in
  Helpers.qcheck_case ~count:1000 "stats match the reference" (QCheck.make ~print gen_table)
    (fun (arity, tuples) ->
      let schema = Array.init arity (fun i -> Schema.attribute (Printf.sprintf "t.c%d" i) Schema.TInt) in
      same_stats (Catalog.Stats.of_tuples schema tuples) (reference_of_tuples schema tuples))

(* A NaN or an infinity among a column's numbers leaves histogram
   bounds that cover nothing, so the column gets no histogram; its
   other statistics are still built. *)
let test_non_finite_no_histogram () =
  let schema = [| Schema.attribute "t.x" Schema.TInt |] in
  List.iter
    (fun (label, xs) ->
      let tuples = Array.of_list (List.map (fun x -> [| Value.Float x |]) xs) in
      let cs = Option.get (Catalog.Stats.column (Catalog.Stats.of_tuples schema tuples) "t.x") in
      Alcotest.(check bool) (label ^ ": no histogram") true (cs.histogram = None);
      Alcotest.(check (float 0.)) (label ^ ": distinct values") 2. cs.n_distinct)
    [ ("[nan; 1.]", [ Float.nan; 1. ]); ("[0.; infinity]", [ 0.; Float.infinity ]) ]

(* Machine-neutral gate: building statistics allocates a few words per
   value, minor and major heap together. The list/[Set] build took
   about 98. *)
let words_per_value_ceiling = 5.

let test_of_tuples_allocation () =
  let rows = 10_000 in
  let rng = Random.State.make [| 23 |] in
  let tuples =
    Array.init rows (fun i ->
        [|
          Value.Int i;
          Value.Int (Random.State.int rng rows);
          Value.Int (Random.State.int rng 100);
          Value.Int (Random.State.int rng 4);
        |])
  in
  let schema = Array.init 4 (fun i -> Schema.attribute (Printf.sprintf "t.c%d" i) Schema.TInt) in
  let stats, words = Helpers.alloc_words (fun () -> Catalog.Stats.of_tuples schema tuples) in
  let per_value = words /. Float.of_int (rows * 4) in
  Alcotest.(check (float 0.)) "rows" (Float.of_int rows) stats.row_count;
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per value, ceiling %.1f" per_value words_per_value_ceiling)
    true
    (per_value <= words_per_value_ceiling)

(* Selectivity estimation against known data. *)

let props =
  Logical_props.make ~schema ~card:100.
    ~distincts:[ ("t.k", 100.); ("t.v", 10.) ]
    ~ranges:[ ("t.k", (0., 99.)); ("t.v", (0., 9.)) ]
    ()

let test_equality_selectivity () =
  let open Expr in
  Alcotest.(check (float 1e-9)) "1/distinct on key" 0.01
    (Catalog.Selectivity.predicate props (col "t.k" =% int 5));
  Alcotest.(check (float 1e-9)) "1/distinct on v" 0.1
    (Catalog.Selectivity.predicate props (col "t.v" =% int 5))

let test_range_selectivity () =
  let open Expr in
  let s = Catalog.Selectivity.predicate props (col "t.k" <% int 50) in
  Alcotest.(check bool) (Printf.sprintf "range about half (got %.3f)" s) true
    (s > 0.4 && s < 0.6);
  let s2 = Catalog.Selectivity.predicate props (int 50 >% col "t.k") in
  Alcotest.(check (float 1e-9)) "flipped constant side" s s2

let test_conjunction_independence () =
  let open Expr in
  let s =
    Catalog.Selectivity.predicate props (col "t.k" =% int 5 &&% (col "t.v" =% int 5))
  in
  Alcotest.(check (float 1e-9)) "product" 0.001 s

let test_negation () =
  let open Expr in
  let s = Catalog.Selectivity.predicate props (Expr.Not (col "t.v" =% int 5)) in
  Alcotest.(check (float 1e-9)) "1 - s" 0.9 s

let test_join_selectivity () =
  let other =
    Logical_props.make
      ~schema:[| Schema.attribute "u.v" Schema.TInt |]
      ~card:50. ~distincts:[ ("u.v", 25.) ] ()
  in
  let open Expr in
  let s = Catalog.Selectivity.join ~left:props ~right:other (col "t.v" =% col "u.v") in
  Alcotest.(check (float 1e-9)) "1/max(d1,d2)" (1. /. 25.) s;
  let cartesian = Catalog.Selectivity.join ~left:props ~right:other Expr.true_ in
  Alcotest.(check (float 1e-9)) "cartesian" 1. cartesian

let test_selectivity_clamped () =
  let open Expr in
  let s = Catalog.Selectivity.predicate props (Expr.Const (Value.Bool false)) in
  Alcotest.(check (float 0.)) "false predicate" 0. s;
  let s1 = Catalog.Selectivity.predicate props Expr.true_ in
  Alcotest.(check (float 0.)) "true predicate" 1. s1;
  ignore col

(* Estimates on real synthetic data should be in the right ballpark. *)
let test_estimate_vs_actual () =
  let catalog = Helpers.small_catalog () in
  let table = Catalog.find catalog "r" in
  let base = Catalog.base_props table in
  let open Expr in
  let pred = col "r.a" =% int 3 in
  let est = Catalog.Selectivity.predicate base pred in
  let actual =
    Float.of_int
      (Array.length (Array.of_seq (Seq.filter (Expr.eval_pred table.schema pred) (Array.to_seq table.tuples))))
    /. Float.of_int (Array.length table.tuples)
  in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.3f within 3x of actual %.3f" est actual)
    true
    (est < 3. *. actual +. 0.05 && actual < 3. *. est +. 0.05)

(* [Catalog.add_synthetic]'s rows as it built them before it generated
   one array per row: a list per row, and [List.nth] for a choice. *)
let reference_synthetic ~name ~columns ~rows ~seed =
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  let gen_value row = function
    | Catalog.Serial -> Value.Int row
    | Catalog.Uniform_int (lo, hi) -> Value.Int (lo + Random.State.int rng (hi - lo + 1))
    | Catalog.Uniform_float (lo, hi) -> Value.Float (lo +. Random.State.float rng (hi -. lo))
    | Catalog.Choice options ->
      Value.Str (List.nth options (Random.State.int rng (List.length options)))
  in
  Array.init rows (fun row ->
      Array.of_list (List.map (fun (_, spec) -> gen_value row spec) columns))

let test_synthetic_matches_reference () =
  let columns =
    [
      ("id", Catalog.Serial);
      ("a", Catalog.Uniform_int (-5, 40));
      ("f", Catalog.Uniform_float (0.5, 9.5));
      ("s", Catalog.Choice [ "x"; "y"; "z"; "w" ]);
      ("b", Catalog.Uniform_int (0, 1));
      ("t", Catalog.Choice [ "only" ]);
    ]
  in
  List.iter
    (fun seed ->
      let catalog = Catalog.create () in
      let name = Printf.sprintf "g%d" seed in
      let table = Catalog.add_synthetic catalog ~name ~columns ~rows:300 ~seed () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: same rows" seed)
        true
        (table.tuples = reference_synthetic ~name ~columns ~rows:300 ~seed))
    [ 0; 1; 7; 23; 1705 ]

(* [base_props] is stored with the table: rebuilt from statistics that
   [update_stats] installs, whether supplied or recomputed. *)
let test_base_props_follow_update_stats () =
  let catalog = Helpers.small_catalog () in
  let table = Catalog.find catalog "r" in
  let before = Catalog.base_props table in
  Alcotest.(check bool) "stored, not rebuilt per call" true (before == Catalog.base_props table);
  Alcotest.(check (float 0.)) "card from the data" 60. before.card;
  let stats =
    {
      Catalog.Stats.row_count = 5000.;
      columns =
        List.map
          (fun (name, c) ->
            if String.equal name "r.a" then
              ( name,
                {
                  (c : Catalog.Stats.column_stats) with
                  n_distinct = 250.;
                  min_value = Some (Value.Int 100);
                  max_value = Some (Value.Float 900.);
                } )
            else (name, c))
          table.stats.columns;
    }
  in
  Catalog.update_stats catalog ~table:"r" ~stats ();
  let after = Catalog.base_props (Catalog.find catalog "r") in
  Alcotest.(check (float 0.)) "card" 5000. after.card;
  Alcotest.(check (option (float 0.))) "distinct" (Some 250.)
    (Logical_props.distinct_raw after "r.a");
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "range" (Some (100., 900.))
    (Logical_props.range_of after "r.a");
  Alcotest.(check (list string)) "relations" [ "r" ] after.relations;
  Catalog.update_stats catalog ~table:"r" ();
  let recomputed = Catalog.base_props (Catalog.find catalog "r") in
  Alcotest.(check (float 0.)) "card recomputed" 60. recomputed.card;
  Alcotest.(check bool) "same properties as at load" true (recomputed = before)

let suite =
  [
    Alcotest.test_case "row count" `Quick test_row_count;
    Alcotest.test_case "distinct counts" `Quick test_distincts;
    Alcotest.test_case "min/max" `Quick test_min_max;
    Alcotest.test_case "null accounting" `Quick test_nulls;
    Alcotest.test_case "histogram fractions" `Quick test_histogram_fraction;
    prop_stats_match_reference;
    Alcotest.test_case "non-finite numbers get no histogram" `Quick
      test_non_finite_no_histogram;
    Alcotest.test_case "of_tuples allocation" `Quick test_of_tuples_allocation;
    Alcotest.test_case "synthetic rows match the reference" `Quick
      test_synthetic_matches_reference;
    Alcotest.test_case "base_props follow update_stats" `Quick
      test_base_props_follow_update_stats;
    Alcotest.test_case "equality selectivity" `Quick test_equality_selectivity;
    Alcotest.test_case "range selectivity" `Quick test_range_selectivity;
    Alcotest.test_case "conjunction independence" `Quick test_conjunction_independence;
    Alcotest.test_case "negation" `Quick test_negation;
    Alcotest.test_case "join selectivity" `Quick test_join_selectivity;
    Alcotest.test_case "clamping" `Quick test_selectivity_clamped;
    Alcotest.test_case "estimate vs actual" `Quick test_estimate_vs_actual;
  ]
