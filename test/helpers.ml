(* Shared fixtures for the test suites. *)

open Relalg

let small_catalog () =
  let catalog = Catalog.create () in
  let add name rows seed columns =
    ignore (Catalog.add_synthetic catalog ~name ~columns ~rows ~seed ())
  in
  add "r" 60 1
    [ ("id", Catalog.Serial); ("a", Catalog.Uniform_int (0, 9)); ("b", Catalog.Uniform_int (0, 4)) ];
  add "s" 40 2
    [ ("id", Catalog.Serial); ("a", Catalog.Uniform_int (0, 9)); ("c", Catalog.Uniform_int (0, 19)) ];
  add "t" 25 3 [ ("id", Catalog.Serial); ("c", Catalog.Uniform_int (0, 19)) ];
  catalog

(* Multiset equality of tuple arrays, ignoring order. *)
let same_bag (a : Tuple.t array) (b : Tuple.t array) =
  let key t = List.map Value.to_string (Array.to_list t) in
  let sorted arr = List.sort compare (List.map key (Array.to_list arr)) in
  sorted a = sorted b

let check_same_bag msg a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s (|a|=%d |b|=%d)" msg (Array.length a) (Array.length b))
    true (same_bag a b)

(* Optimize a logical query against a catalog and return the plan,
   failing the test when optimization fails. *)
let optimize_plan ?(required = Phys_prop.any) ?request catalog query =
  let req = match request with Some r -> r | None -> Relmodel.Optimizer.request catalog in
  let result = Relmodel.Optimizer.optimize req query ~required in
  match result.plan with
  | Some p -> p
  | None -> Alcotest.fail "optimizer returned no plan"

(* End-to-end: optimized execution must agree with the naive oracle. *)
let check_optimized_matches_naive ?(required = Phys_prop.any) catalog query =
  let plan = optimize_plan ~required catalog query in
  let expected, _ = Executor.naive catalog query in
  let actual, _, _ = Executor.run catalog (Relmodel.Optimizer.to_physical plan) in
  check_same_bag "optimized result = naive result" expected actual;
  plan

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Words allocated by [f ()], minor and major heap together: minor words
   plus major words less the promoted ones, which both count.
   [Gc.minor_words] includes the current minor heap, which
   [Gc.counters]'s minor count leaves out. The words the measurement
   itself allocates are measured once around a call that allocates
   nothing and taken off, so a function that allocates nothing reads
   0. *)
let[@inline never] total_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let[@inline never] measure_words f =
  let w0 = total_words () in
  let r = f () in
  (r, total_words () -. w0)

let measurement_words = snd (measure_words (fun () -> ()))

let alloc_words f =
  let r, words = measure_words f in
  (r, words -. measurement_words)
