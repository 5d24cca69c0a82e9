(* Bench regression gate: compare two benchmark reports, or two
   directories of BENCH_*.json reports, cell by cell.

   Usage:
     bench_diff OLD NEW

   Both sides are in the one report schema bench/main.ml writes (see
   validate_obs bench): bench, mode, cores, named boolean gates,
   headlines, and cells keyed by their identity, whose arms split their
   numbers into machine-neutral counters and timings. OLD is the
   reference and must not be a smoke run. Cells are matched by key and
   arms by name; the run fails when
   - a gate is false on either side;
   - a counter differs on a shared cell, or an arm or counter exists on
     one side only;
   - the two reports share no cell.
   Timings are not compared: they depend on the machine, its load and
   the repetitions of each mode, and every bench bounds its own
   overheads as ratios through its gates. Headlines summarise different
   cell sets in different modes and are not compared either.
   Exit status: 0 clean, 1 differences, 2 usage, I/O or schema error. *)

open Obs.Json

let usage () =
  prerr_endline "usage: bench_diff OLD NEW";
  exit 2

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bench_diff: " ^ s);
      exit 2)
    fmt

let to_obj = function Obj fs -> Some fs | _ -> None

let need path conv name j =
  match Option.bind (member name j) conv with
  | Some v -> v
  | None -> die "%s: %s missing or invalid" path name

(* A cell's identity: its key fields sorted, rendered. *)
let cells path j =
  List.map
    (fun c ->
      ( to_string (Obj (List.sort compare (need path to_obj "key" c))),
        List.map (fun a -> (need path to_str "arm" a, a)) (need path to_list "arms" c) ))
    (need path to_list "cells" j)

(* Compare one report pair; returns the number of failures. *)
let diff_files old_path new_path =
  let load path =
    match read_file path with Ok j -> j | Error e -> die "%s: %s" path e
  in
  let o = load old_path and n = load new_path in
  let str path name j = need path to_str name j and cores path j = need path to_int "cores" j in
  if str old_path "mode" o = "smoke" then
    die "%s: a smoke report cannot be the reference (regenerate it at default size)"
      old_path;
  if str old_path "bench" o <> str new_path "bench" n then
    die "%s and %s are reports of different benches" old_path new_path;
  Printf.printf "%s (%s, %d cores) -> %s (%s, %d cores)\n" old_path (str old_path "mode" o)
    (cores old_path o) new_path (str new_path "mode" n) (cores new_path n);
  let failures = ref 0 in
  let flag s =
    incr failures;
    Printf.printf "  ! %s\n" s
  in
  (* The entries of [a] and [b] present in both, paired by name, after
     flagging those on one side only. *)
  let matched what a b =
    let only side x y =
      List.iter
        (fun (k, _) ->
          if not (List.mem_assoc k y) then flag (Printf.sprintf "%s %s: only in %s" what k side))
        x
    in
    only old_path a b;
    only new_path b a;
    List.filter_map (fun (k, va) -> Option.map (fun vb -> (k, va, vb)) (List.assoc_opt k b)) a
  in
  List.iter
    (fun (path, j) ->
      List.iter
        (fun (g, v) ->
          if v <> Bool true then flag (Printf.sprintf "gate %s is not true in %s" g path))
        (need path to_obj "gates" j))
    [ (old_path, o); (new_path, n) ];
  let n_cells = cells new_path n in
  let shared = ref 0 and counters = ref 0 in
  List.iter
    (fun (key, o_arms) ->
      match List.assoc_opt key n_cells with
      | None -> ()
      | Some n_arms ->
        incr shared;
        List.iter
          (fun (arm, oa, na) ->
            let where = Printf.sprintf "%s arm %s:" key arm in
            let fields name a = Option.value (Option.bind (member name a) to_obj) ~default:[] in
            List.iter
              (fun (c, ov, nv) ->
                incr counters;
                if ov <> nv then
                  flag (Printf.sprintf "%s %s %s -> %s" where c (to_string ov) (to_string nv)))
              (matched (where ^ " counter") (fields "counters" oa) (fields "counters" na)))
          (matched (key ^ " arm") o_arms n_arms))
    (cells old_path o);
  if !shared = 0 then flag "no cell in common: nothing compared";
  Printf.printf "  %d shared cells: %d counters compared\n" !shared !counters;
  !failures

let bench_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
  |> List.sort compare

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ old_path; new_path ] ->
    let pairs =
      match (Sys.is_directory old_path, Sys.is_directory new_path) with
      | exception Sys_error e -> die "%s" e
      | true, true ->
        let old_files = bench_files old_path and new_files = bench_files new_path in
        List.iter
          (fun (dir, files, other) ->
            List.iter
              (fun f -> if not (List.mem f other) then Printf.printf "only in %s: %s\n" dir f)
              files)
          [ (old_path, old_files, new_files); (new_path, new_files, old_files) ];
        let common = List.filter (fun f -> List.mem f new_files) old_files in
        if common = [] then die "no common BENCH_*.json files in %s and %s" old_path new_path;
        List.map (fun f -> (Filename.concat old_path f, Filename.concat new_path f)) common
      | false, false -> [ (old_path, new_path) ]
      | _ -> die "%s and %s must both be files or both be directories" old_path new_path
    in
    let failures =
      List.fold_left (fun acc (o, n) -> acc + diff_files o n) 0 pairs
    in
    if failures > 0 then begin
      Printf.printf "FAIL: %d difference(s)\n" failures;
      exit 1
    end
    else Printf.printf "OK: every gate holds and every shared counter matches\n"
  | _ -> usage ()
