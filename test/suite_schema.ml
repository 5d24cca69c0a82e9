(* Unit tests for Relalg.Schema and Relalg.Tuple. *)

open Relalg

let schema : Schema.t =
  [|
    Schema.attribute "emp.id" Schema.TInt;
    Schema.attribute "emp.name" Schema.TStr;
    Schema.attribute "dept.id" Schema.TInt;
  |]

let test_qualify () =
  Alcotest.(check string) "qualify" "emp.salary" (Schema.qualify "emp" "salary");
  Alcotest.(check string) "base name" "salary" (Schema.base_name "emp.salary");
  Alcotest.(check string) "base of unqualified" "salary" (Schema.base_name "salary")

let test_index_of () =
  Alcotest.(check int) "exact" 0 (Schema.index_of schema "emp.id");
  Alcotest.(check int) "unqualified unique" 1 (Schema.index_of schema "name");
  Alcotest.check_raises "ambiguous unqualified" Not_found (fun () ->
      ignore (Schema.index_of schema "id"));
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Schema.index_of schema "nope"))

let test_resolve () =
  Alcotest.(check string) "resolve unqualified" "emp.name" (Schema.resolve schema "name")

(* The resolution [Schema.index_of] had before it compared in place:
   an exact scan, then a scan of every attribute's [base_name]. *)
let reference_index_of (schema : Schema.t) name =
  let n = Array.length schema in
  let rec exact i =
    if i >= n then unqualified 0 (-1)
    else if String.equal schema.(i).name name then i
    else exact (i + 1)
  and unqualified i found =
    if i >= n then (if found >= 0 then found else raise Not_found)
    else if String.equal (Schema.base_name schema.(i).name) name then
      if found >= 0 then raise Not_found (* ambiguous *) else unqualified (i + 1) i
    else unqualified (i + 1) found
  in
  exact 0

(* Names built from a few short parts, so that random schemas hold
   unqualified names, qualified ones, names with several dots and empty
   parts, repeated base names (ambiguous unqualified references), and a
   base name that ends with another ("pid", "id"). *)
let gen_name =
  QCheck.Gen.(
    map (String.concat ".")
      (list_size (int_range 1 3) (oneofl [ "a"; "b"; "id"; "pid"; "" ])))

let prop_resolution_matches_reference =
  let gen =
    QCheck.Gen.(
      pair (array_size (int_range 0 6) gen_name) (list_size (int_range 0 4) gen_name))
  in
  let print (names, probes) =
    Printf.sprintf "schema [%s], probes [%s]"
      (String.concat "; " (Array.to_list names))
      (String.concat "; " probes)
  in
  Helpers.qcheck_case ~count:500 "resolution matches the reference"
    (QCheck.make ~print gen)
    (fun (names, probes) ->
      let schema = Array.map (fun n -> Schema.attribute n Schema.TInt) names in
      (* Every attribute name, its base name, random names, and names no
         schema holds. *)
      let probes =
        Array.to_list names @ List.map Schema.base_name (Array.to_list names) @ probes
        @ [ "zz"; "zz.id"; "a.zz.id" ]
      in
      List.for_all
        (fun name ->
          let expected = try Some (reference_index_of schema name) with Not_found -> None in
          let raised f = try Some (f ()) with Not_found -> None in
          Schema.find_index schema name = Option.value expected ~default:(-1)
          && raised (fun () -> Schema.index_of schema name) = expected
          && Schema.mem schema name = Option.is_some expected
          && raised (fun () -> Schema.resolve schema name)
             = Option.map (fun i -> schema.(i).Schema.name) expected)
        probes)

(* Machine-neutral gate: a membership test allocates nothing, here for a
   qualified name the schema does not hold, which the old resolution
   answered by building every attribute's base name and raising. *)
let test_mem_allocates_nothing () =
  let name = Sys.opaque_identity "dept.budget" in
  let probe () =
    let found = ref false in
    let (), words =
      Helpers.alloc_words (fun () ->
          for _ = 1 to 1000 do
            found := !found || Schema.mem schema name
          done)
    in
    Alcotest.(check bool) "absent" false !found;
    words
  in
  ignore (probe ());
  Alcotest.(check (float 0.)) "words over 1000 calls" 0. (probe ())

let test_project_and_concat () =
  let p = Schema.project schema [ "dept.id"; "emp.id" ] in
  Alcotest.(check (list string)) "projected order" [ "dept.id"; "emp.id" ] (Schema.names p);
  let c = Schema.concat p [| Schema.attribute "x" Schema.TFloat |] in
  Alcotest.(check int) "concat length" 3 (Array.length c)

let test_row_width () =
  Alcotest.(check int) "width" (8 + 24 + 8) (Schema.row_width schema)

let test_tuple_ops () =
  let t : Tuple.t = [| Value.Int 1; Value.Str "a"; Value.Int 9 |] in
  let p = Tuple.project schema [ "dept.id" ] t in
  Alcotest.(check bool) "project picks value" true (Value.equal p.(0) (Value.Int 9));
  let u : Tuple.t = [| Value.Int 1; Value.Str "a"; Value.Int 9 |] in
  Alcotest.(check bool) "tuple equal" true (Tuple.equal t u);
  Alcotest.(check int) "tuple hash equal" (Tuple.hash t) (Tuple.hash u);
  let v : Tuple.t = [| Value.Int 2; Value.Str "a"; Value.Int 9 |] in
  Alcotest.(check int) "compare by emp.id asc" (-1)
    (Tuple.compare_by schema [ ("emp.id", `Asc) ] t v);
  Alcotest.(check int) "compare by emp.id desc" 1
    (Tuple.compare_by schema [ ("emp.id", `Desc) ] t v)

let suite =
  [
    Alcotest.test_case "qualify/base_name" `Quick test_qualify;
    Alcotest.test_case "index_of" `Quick test_index_of;
    Alcotest.test_case "resolve" `Quick test_resolve;
    prop_resolution_matches_reference;
    Alcotest.test_case "mem allocates nothing" `Quick test_mem_allocates_nothing;
    Alcotest.test_case "project/concat" `Quick test_project_and_concat;
    Alcotest.test_case "row width" `Quick test_row_width;
    Alcotest.test_case "tuple operations" `Quick test_tuple_ops;
  ]
