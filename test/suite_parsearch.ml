(* Tests of intra-query parallel search (Search.run ~domains): the
   plans and costs must be bit-identical to the sequential engine at
   any domain count, duplicate goals must be claimed by exactly one
   worker, and the winner/failure tables published by workers must be
   consistent with the sequential ones. *)

open Relalg

(* Golden workloads shared with suite_engine: a subset is enough here
   because every case runs at three domain counts. *)
let chain_cases = [ (2, 11); (4, 23); (6, 42) ]
let star_cases = [ (3, 103); (4, 104); (5, 105) ]

let workloads () =
  List.map (fun (n, seed) -> (Workload.Chain, "chain", n, seed)) chain_cases
  @ List.map (fun (n, seed) -> (Workload.Star, "star", n, seed)) star_cases

(* Render a result so that any difference — operator choice, property
   vectors, per-node costs down to the last bit — breaks equality. *)
let render (result : Relmodel.Optimizer.result) =
  match result.plan with
  | None -> "NONE"
  | Some p ->
    Printf.sprintf "%s|%.17g" (Relmodel.Optimizer.explain p) (Cost.total p.cost)

let optimize_at ~domains (q : Workload.query) required =
  let request =
    { (Relmodel.Optimizer.request q.catalog) with restore_columns = false; domains }
  in
  Relmodel.Optimizer.optimize request q.logical ~required

(* ------------------------------------------------------------------ *)
(* Golden determinism: 1, 2 and 4 domains, bit-identical plans        *)
(* ------------------------------------------------------------------ *)

let test_golden_bit_identical () =
  List.iter
    (fun (shape, name, n, seed) ->
      let q = Workload.generate (Workload.spec ~shape ~n_relations:n ~seed ()) in
      List.iter
        (fun (rname, required) ->
          let base = render (optimize_at ~domains:1 q required) in
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d %s: sequential run finds a plan" name n rname)
            true (base <> "NONE");
          List.iter
            (fun domains ->
              Alcotest.(check string)
                (Printf.sprintf "%s n=%d %s: %d domains bit-identical" name n rname
                   domains)
                base
                (render (optimize_at ~domains q required)))
            [ 2; 4 ])
        [
          ("any", Phys_prop.any);
          ("sorted", Phys_prop.sorted (Sort_order.asc [ List.hd q.relations ^ ".jk1" ]));
        ])
    (workloads ())

(* ------------------------------------------------------------------ *)
(* Steal-heavy stress: skewed goal sizes under work stealing         *)
(* ------------------------------------------------------------------ *)

(* A chain query's seed goals are heavily skewed — the goals at the top
   of each deque span far more subgoals than the ones near the leaves —
   so at 4 domains the workers that drain their own deque first must
   steal to stay busy. The scheduler must still deliver the
   sequential plan bit-for-bit, claim at least every seed, and — the
   invariant the claim-table backoff buys — never compute a goal in
   duplicate. *)
let test_steal_stress () =
  List.iter
    (fun (shape, name, n, seed) ->
      let q = Workload.generate (Workload.spec ~shape ~n_relations:n ~seed ()) in
      let base = render (optimize_at ~domains:1 q Phys_prop.any) in
      let r = optimize_at ~domains:4 q Phys_prop.any in
      Alcotest.(check string)
        (Printf.sprintf "%s n=%d: stealing at 4 domains bit-identical" name n)
        base (render r);
      Alcotest.(check bool)
        (Printf.sprintf "%s n=%d: search ran to completion" name n)
        true r.complete;
      let s = r.stats in
      Alcotest.(check bool)
        (Printf.sprintf "%s n=%d: workers claimed goals" name n)
        true
        (s.Volcano.Search_stats.par_goals_claimed > 0);
      Alcotest.(check int)
        (Printf.sprintf "%s n=%d: no goal computed in duplicate" name n)
        0 s.Volcano.Search_stats.par_dup_goals)
    [ (Workload.Chain, "chain", 6, 42); (Workload.Star, "star", 5, 105) ]

(* ------------------------------------------------------------------ *)
(* Claim stress: duplicate goals dedupe instead of racing             *)
(* ------------------------------------------------------------------ *)

(* N domains race Memo.try_claim over the same goal set, every domain
   starting from a different offset so collisions are certain. Exactly
   one claim per goal may succeed: that is the invariant that makes a
   goal optimized once even when several workers want it. *)
let test_claim_race () =
  let q = Workload.generate (Workload.spec ~shape:Workload.Chain ~n_relations:4 ~seed:7 ()) in
  let module M = (val Relmodel.Rel_model.make ~catalog:q.catalog ()) in
  let module S = Volcano.Search.Make (M) in
  let s = S.create () in
  let root = S.insert_query s (Relmodel.Rel_model.to_tree q.logical) in
  let memo = s.S.memo in
  let groups = List.init (S.Memo.n_groups memo) Fun.id in
  let keys =
    (Phys_prop.any, None)
    :: List.init 15 (fun i ->
           (Phys_prop.sorted (Sort_order.asc [ Printf.sprintf "c%d.jk1" i ]), None))
  in
  let goals =
    Array.of_list
      (List.concat_map (fun g -> List.map (fun key -> (g, key)) keys) groups)
  in
  let n_goals = Array.length goals in
  let wins = Array.init n_goals (fun _ -> Atomic.make 0) in
  let n_domains = 4 in
  let racer d () =
    for i = 0 to n_goals - 1 do
      let j = (i + (d * n_goals / n_domains)) mod n_goals in
      let g, key = goals.(j) in
      if S.Memo.try_claim memo g key then ignore (Atomic.fetch_and_add wins.(j) 1)
    done
  in
  List.iter Domain.join (List.init n_domains (fun d -> Domain.spawn (racer d)));
  Array.iteri
    (fun i w ->
      Alcotest.(check int)
        (Printf.sprintf "goal %d claimed exactly once" i)
        1 (Atomic.get w))
    wins;
  (* A claimed goal stays claimed for the rest of the phase... *)
  let g0, key0 = goals.(0) in
  Alcotest.(check bool) "re-claim of a claimed goal fails" false
    (S.Memo.try_claim memo g0 key0);
  (* ...and reset_claims opens the next phase. *)
  S.Memo.reset_claims memo;
  Alcotest.(check bool) "claim succeeds after reset" true
    (S.Memo.try_claim memo g0 key0);
  ignore root

(* ------------------------------------------------------------------ *)
(* Winner/failure tables: parallel entries consistent with sequential *)
(* ------------------------------------------------------------------ *)

(* Run the same query on two searchers — one sequential, one at 4
   domains — with the identical explore-first prelude, so group ids
   align. Every goal present in both winner tables must agree: two
   plans carry the same cost, and a failure on one side must have been
   recorded under a bound strictly below the other side's plan cost
   (a bounded failure is the claim "no plan at or under this bound"). *)
let test_winner_tables_consistent () =
  let q = Workload.generate (Workload.spec ~shape:Workload.Star ~n_relations:4 ~seed:104 ()) in
  let module M = (val Relmodel.Rel_model.make ~catalog:q.catalog ()) in
  let module S = Volcano.Search.Make (M) in
  let tree = Relmodel.Rel_model.to_tree q.logical in
  let required = Phys_prop.any in
  let run_seq () =
    let s = S.create () in
    let root = S.insert_query s tree in
    S.explore_reachable s root ~required ~limit:Cost.infinite;
    S.Memo.compress_paths s.S.memo;
    ignore (S.optimize s tree ~required : S.outcome);
    s
  in
  let run_par () =
    let s = S.create () in
    ignore (S.run ~domains:4 s tree ~required : S.outcome);
    s
  in
  let seq = run_seq () and par = run_par () in
  let compared = ref 0 in
  for g = 0 to S.Memo.n_groups seq.S.memo - 1 do
    if S.Memo.find_root seq.S.memo g = g then begin
      let ws = S.Memo.winners_alist seq.S.memo g in
      List.iter
        (fun (key, (s_w : S.Memo.winner)) ->
          match S.Memo.winner par.S.memo g key with
          | None -> ()
          | Some p_w ->
            incr compared;
            (match s_w.S.Memo.w_plan, p_w.S.Memo.w_plan with
             | Some sp, Some pp ->
               Alcotest.(check (float 0.))
                 (Printf.sprintf "group %d: winner costs identical" g)
                 (Cost.total sp.S.Memo.p_cost)
                 (Cost.total pp.S.Memo.p_cost)
             | Some sp, None ->
               Alcotest.(check bool)
                 (Printf.sprintf "group %d: parallel failure below sequential winner" g)
                 true
                 (Cost.total p_w.S.Memo.w_bound < Cost.total sp.S.Memo.p_cost)
             | None, Some pp ->
               Alcotest.(check bool)
                 (Printf.sprintf "group %d: sequential failure below parallel winner" g)
                 true
                 (Cost.total s_w.S.Memo.w_bound < Cost.total pp.S.Memo.p_cost)
             | None, None -> ()))
        ws
    end
  done;
  Alcotest.(check bool) "some goals were compared" true (!compared > 0)

(* ------------------------------------------------------------------ *)
(* The Chase–Lev deque under the scheduler                            *)
(* ------------------------------------------------------------------ *)

(* Sequential linearizability against a list model: with no concurrent
   thief, push/pop/steal must behave exactly like a two-ended queue —
   push and pop at the bottom (LIFO), steal at the top (FIFO) — through
   arbitrary interleavings, including ones that force buffer growth
   (the deque starts at capacity 2 here). *)
let prop_deque_model =
  let gen = QCheck.Gen.(list_size (int_range 0 200) (int_range 0 2)) in
  Helpers.qcheck_case ~count:100 "deque matches the two-ended-queue model"
    (QCheck.make gen) (fun ops ->
      let d = Volcano.Deque.create ~capacity:2 () in
      let model = ref [] in
      let counter = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
            incr counter;
            Volcano.Deque.push d !counter;
            model := !model @ [ !counter ];
            true
          | 1 -> begin
            let expect =
              match List.rev !model with
              | [] -> None
              | last :: rest ->
                model := List.rev rest;
                Some last
            in
            Volcano.Deque.pop d = expect
          end
          | _ -> begin
            match Volcano.Deque.steal d, !model with
            | Volcano.Deque.Empty, [] -> true
            | Volcano.Deque.Stolen v, first :: rest ->
              model := rest;
              v = first
            | Volcano.Deque.Empty, _ :: _
            | Volcano.Deque.Stolen _, []
            | Volcano.Deque.Retry, _ ->
              (* Retry is impossible without a concurrent racer. *)
              false
          end)
        ops
      && Volcano.Deque.size d = List.length !model)

(* Exactly-once delivery under real concurrency: one owner domain
   pushes N elements (popping some along the way) while three thief
   domains steal continuously. Every element must land in exactly one
   domain's basket — none lost to a race, none delivered twice. *)
let test_deque_exactly_once () =
  let n = 20_000 in
  let d = Volcano.Deque.create ~capacity:4 () in
  let done_ = Atomic.make false in
  let thief () =
    let got = ref [] in
    let rec loop () =
      match Volcano.Deque.steal d with
      | Volcano.Deque.Stolen v ->
        got := v :: !got;
        loop ()
      | Volcano.Deque.Retry -> loop ()
      | Volcano.Deque.Empty -> if not (Atomic.get done_) then loop ()
    in
    loop ();
    !got
  in
  let thieves = List.init 3 (fun _ -> Domain.spawn thief) in
  let owner_got = ref [] in
  for i = 0 to n - 1 do
    Volcano.Deque.push d i;
    (* Pop roughly every third push so the owner races thieves at the
       last-element boundary, the hard case of the algorithm. *)
    if i mod 3 = 0 then
      match Volcano.Deque.pop d with
      | Some v -> owner_got := v :: !owner_got
      | None -> ()
  done;
  let rec drain () =
    match Volcano.Deque.pop d with
    | Some v ->
      owner_got := v :: !owner_got;
      drain ()
    | None -> ()
  in
  drain ();
  Atomic.set done_ true;
  let stolen = List.concat_map Domain.join thieves in
  let all = List.sort compare (stolen @ !owner_got) in
  Alcotest.(check int) "every element delivered" n (List.length all);
  List.iteri
    (fun i v -> if i <> v then Alcotest.failf "element %d delivered as %d" i v)
    all;
  Alcotest.(check bool) "deque drained" true (Volcano.Deque.is_empty d)

(* ------------------------------------------------------------------ *)
(* Property: parallel result equals sequential on random workloads    *)
(* ------------------------------------------------------------------ *)

let prop_par_equals_seq =
  let gen =
    QCheck.Gen.(
      quad (oneofl [ Workload.Chain; Workload.Star ]) (int_range 2 5) (int_range 0 999)
        (int_range 2 4))
  in
  Helpers.qcheck_case ~count:12 "parallel plan equals sequential"
    (QCheck.make gen) (fun (shape, n, seed, domains) ->
      let q = Workload.generate (Workload.spec ~shape ~n_relations:n ~seed ()) in
      render (optimize_at ~domains:1 q Phys_prop.any)
      = render (optimize_at ~domains q Phys_prop.any))

let suite =
  [
    Alcotest.test_case "golden plans bit-identical at 1/2/4 domains" `Quick
      test_golden_bit_identical;
    Alcotest.test_case "steal-heavy stress: identical, complete, no duplicates" `Quick
      test_steal_stress;
    Alcotest.test_case "duplicate goals claimed exactly once" `Quick test_claim_race;
    Alcotest.test_case "winner/failure tables consistent" `Quick
      test_winner_tables_consistent;
    prop_deque_model;
    Alcotest.test_case "deque delivers each element exactly once" `Quick
      test_deque_exactly_once;
    prop_par_equals_seq;
  ]
