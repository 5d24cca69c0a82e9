(* Tests of the memo structure: expression deduplication, equivalence
   class merging (union-find), winner tables. Driven through a
   relational model instance. *)

open Relalg

let catalog = Helpers.small_catalog ()

module M = (val Relmodel.Rel_model.make ~catalog ())
module S = Volcano.Search.Make (M)
module Memo = S.Memo

let new_memo () = Memo.create (Volcano.Search_stats.create ())

let get t = Logical.Get t

let join p = Logical.Join p

let test_insert_dedup () =
  let m = new_memo () in
  let g1 = Memo.insert m (get "r") [] in
  let g2 = Memo.insert m (get "r") [] in
  Alcotest.(check int) "same group" g1 g2;
  Alcotest.(check int) "one group" 1 (Memo.n_groups m);
  Alcotest.(check int) "one mexpr" 1 (Memo.n_mexprs m);
  let g3 = Memo.insert m (get "s") [] in
  Alcotest.(check bool) "different table, different group" true (g1 <> g3)

let test_insert_into_target () =
  let m = new_memo () in
  let gr = Memo.insert m (get "r") [] in
  let gs = Memo.insert m (get "s") [] in
  let pred = Expr.(col "r.a" =% col "s.a") in
  let gj = Memo.insert m (join pred) [ gr; gs ] in
  (* The commuted expression belongs to the same class. *)
  let gj' = Memo.insert m ~target:gj (join pred) [ gs; gr ] in
  Alcotest.(check int) "same class" (Memo.find_root m gj) (Memo.find_root m gj');
  Alcotest.(check int) "two join mexprs in class" 2
    (List.length (Memo.mexprs m gj))

let test_merge_via_duplicate_derivation () =
  let m = new_memo () in
  let gr = Memo.insert m (get "r") [] in
  let gs = Memo.insert m (get "s") [] in
  let pred = Expr.(col "r.a" =% col "s.a") in
  (* Derive the same expression in two separate classes, then prove
     them equal by inserting one's expression into the other. *)
  let g1 = Memo.insert m (join pred) [ gr; gs ] in
  let g2 = Memo.insert m (join pred) [ gs; gr ] in
  Alcotest.(check bool) "initially separate" true (Memo.find_root m g1 <> Memo.find_root m g2);
  let merged = Memo.insert m ~target:g2 (join pred) [ gr; gs ] in
  Alcotest.(check int) "merged root" (Memo.find_root m g1) (Memo.find_root m merged);
  Alcotest.(check int) "g2 merged too" (Memo.find_root m g1) (Memo.find_root m g2);
  Alcotest.(check int) "both mexprs survive" 2 (List.length (Memo.mexprs m g1))

let test_merge_reindexes_parents () =
  let m = new_memo () in
  let gr = Memo.insert m (get "r") [] in
  let gs = Memo.insert m (get "s") [] in
  let gt = Memo.insert m (get "t") [] in
  let p1 = Expr.(col "r.a" =% col "s.a") in
  let g1 = Memo.insert m (join p1) [ gr; gs ] in
  let g2 = Memo.insert m (join p1) [ gs; gr ] in
  (* Parents over both classes. *)
  let p2 = Expr.(col "s.c" =% col "t.c") in
  let top1 = Memo.insert m (join p2) [ g1; gt ] in
  let top2 = Memo.insert m (join p2) [ g2; gt ] in
  Alcotest.(check bool) "tops separate" true (Memo.find_root m top1 <> Memo.find_root m top2);
  (* Merging the children must fold the parents too: after g1 = g2,
     JOIN(p2, g1, t) and JOIN(p2, g2, t) spell the same expression. *)
  ignore (Memo.insert m ~target:g2 (join p1) [ gr; gs ]);
  Alcotest.(check int) "parents merged transitively" (Memo.find_root m top1)
    (Memo.find_root m top2)

let test_lprops_derived_once () =
  let m = new_memo () in
  let gr = Memo.insert m (get "r") [] in
  let props = Memo.lprops m gr in
  Alcotest.(check (float 0.)) "card from catalog" 60. props.Logical_props.card;
  let gsel = Memo.insert m (Logical.Select Expr.(col "r.a" =% int 3)) [ gr ] in
  let sprops = Memo.lprops m gsel in
  Alcotest.(check bool) "selection reduces card" true
    (sprops.Logical_props.card < props.Logical_props.card)

let test_winner_table () =
  let m = new_memo () in
  let gr = Memo.insert m (get "r") [] in
  let key = (Phys_prop.any, None) in
  Alcotest.(check bool) "empty at first" true (Memo.winner m gr key = None);
  let plan =
    {
      Memo.p_alg = Physical.Table_scan "r";
      p_rule = "scan";
      p_inputs = [];
      p_props = Phys_prop.any;
      p_cost = Cost.make ~io:1. ~cpu:0.;
    }
  in
  Memo.set_winner m gr key (Some plan) Cost.infinite;
  (match Memo.winner m gr key with
   | Some { w_plan = Some p; _ } ->
     Alcotest.(check bool) "stored plan" true (p.Memo.p_alg = Physical.Table_scan "r")
   | _ -> Alcotest.fail "winner not stored");
  (* Distinct goals are distinct entries. *)
  let key2 = (Phys_prop.sorted (Sort_order.asc [ "r.a" ]), None) in
  Alcotest.(check bool) "other goal empty" true (Memo.winner m gr key2 = None);
  (* The excluding vector is part of the goal identity. *)
  let key3 = (Phys_prop.any, Some (Phys_prop.sorted (Sort_order.asc [ "r.a" ]))) in
  Alcotest.(check bool) "excluded variant empty" true (Memo.winner m gr key3 = None)

let test_in_progress_marks () =
  let m = new_memo () in
  let gr = Memo.insert m (get "r") [] in
  (* In-progress marks are keyed by interned goal id; interning the
     same key twice yields the same id (the memo fast path). *)
  let kid = Memo.intern m (Phys_prop.any, None) in
  Alcotest.(check int) "interning is idempotent" kid
    (Memo.intern m (Phys_prop.any, None));
  Alcotest.(check bool) "not in progress" false (Memo.in_progress m gr kid);
  Memo.mark_in_progress m gr kid;
  Alcotest.(check bool) "marked" true (Memo.in_progress m gr kid);
  Memo.unmark_in_progress m gr kid;
  Alcotest.(check bool) "unmarked" false (Memo.in_progress m gr kid)

let test_extract_any () =
  let m = new_memo () in
  let gr = Memo.insert m (get "r") [] in
  let gsel = Memo.insert m (Logical.Select Expr.(col "r.a" =% int 3)) [ gr ] in
  let tree = Memo.extract_any m gsel in
  Alcotest.(check int) "tree size" 2 (Volcano.Tree.size tree)

(* Property: after a random interleaving of inserts (with and without
   targets), every (op, canonical inputs) key lives in exactly one root
   group, and mexpr counts never exceed distinct insertions. *)
let prop_insert_unique_home =
  let gen =
    QCheck.Gen.(list_size (int_range 1 30) (pair (oneofl [ "r"; "s"; "t" ]) (int_range 0 2)))
  in
  let arb = QCheck.make gen in
  Helpers.qcheck_case ~count:50 "memo: one home per expression" arb (fun actions ->
      let m = new_memo () in
      let groups = ref [] in
      List.iter
        (fun (t, mode) ->
          let g = Memo.insert m (get t) [] in
          groups := g :: !groups;
          match mode, !groups with
          | 0, _ -> ()
          | _, a :: b :: _ when a <> b ->
            (* Join over two existing groups, twice with swapped inputs. *)
            let pred = Expr.true_ in
            let g1 = Memo.insert m (join pred) [ a; b ] in
            ignore (Memo.insert m ~target:g1 (join pred) [ b; a ])
          | _, _ -> ())
        actions;
      (* Re-inserting any already-present expression must return its
         root and create nothing new. *)
      let before = Memo.n_mexprs m in
      List.iter (fun (t, _) -> ignore (Memo.insert m (get t) [])) actions;
      Memo.n_mexprs m = before)

(* ------------------------------------------------------------------ *)
(* The per-group goal slot space against a reference model. A bare
   integer model keeps the goal keys cheap: goal [p] is the key
   [(p, None)], and after interning [0 .. n_goals - 1] in order its id is
   [p]. Leaf [i]'s logical properties are [i], and the lower bound of
   [required] for properties [lp] is [lp * n_goals + required], so a
   bound served from the wrong slot or the wrong class shows. *)

let n_goals = 10_000

module Int_model = struct
  let model_name = "int"

  type op = int

  let op_arity _ = 0

  let op_equal = Int.equal

  let op_hash = Hashtbl.hash

  let op_name = string_of_int

  type alg = int

  let alg_arity _ = 0

  let alg_name = string_of_int

  type logical_props = int

  let derive op _ = op

  type phys_props = int

  let pp_equal = Int.equal

  let pp_hash = Hashtbl.hash

  let pp_covers ~provided ~required = provided = required

  let pp_to_string = string_of_int

  type cost = int

  let cost_zero = 0

  let cost_infinite = max_int

  let cost_is_infinite c = c = max_int

  let cost_add = ( + )

  let cost_sub = ( - )

  let cost_compare = Int.compare

  let cost_to_string = string_of_int

  let cost_of _ ~inputs:_ ~input_props:_ ~output:_ = 1

  let deliver _ _ = 0

  let cost_lower_bound lp required = (lp * n_goals) + required

  let transforms = []

  let implementations = []

  let enforcers ~props:_ ~required:_ = []
end

module IM = Volcano.Memo.Make (Int_model)

type slot_op =
  | Set_winner of int * int * int option * int  (** group, goal, plan cost, bound *)
  | Mark of int * int
  | Unmark of int * int
  | Lower_bound of int * int
  | Record_alt of int * int * int
  | Merge of int * int

let show_slot_op = function
  | Set_winner (g, id, c, b) ->
    Printf.sprintf "set_winner(%d,%d,%s,%d)" g id
      (match c with None -> "fail" | Some c -> string_of_int c)
      b
  | Mark (g, id) -> Printf.sprintf "mark(%d,%d)" g id
  | Unmark (g, id) -> Printf.sprintf "unmark(%d,%d)" g id
  | Lower_bound (g, id) -> Printf.sprintf "lower_bound(%d,%d)" g id
  | Record_alt (g, id, a) -> Printf.sprintf "alt(%d,%d,%d)" g id a
  | Merge (a, b) -> Printf.sprintf "merge(%d,%d)" a b

let n_leaves = 5

let gen_slot_ops =
  let open QCheck.Gen in
  let group = int_range 0 (n_leaves - 1) in
  (* A few hot goals (repeat hits) and a long tail up to [n_goals]. *)
  let goal = frequency [ (1, int_range 0 15); (3, int_range 0 (n_goals - 1)) ] in
  let op =
    frequency
      [
        ( 6,
          map3
            (fun (g, id) c b -> Set_winner (g, id, c, b))
            (pair group goal) (opt (int_range 0 50)) (int_range 0 50) );
        (3, map2 (fun g id -> Mark (g, id)) group goal);
        (2, map2 (fun g id -> Unmark (g, id)) group goal);
        (3, map2 (fun g id -> Lower_bound (g, id)) group goal);
        (3, map3 (fun g id a -> Record_alt (g, id, a)) group goal (int_range 0 9));
        (1, map2 (fun a b -> Merge (a, b)) group group);
      ]
  in
  list_size (int_range 1 600) op

(* The reference model: one Hashtbl per goal table, keyed by (root
   group, goal id), and its own union-find in which [merge a b] keeps
   [a]'s root. *)
type ref_model = {
  r_parent : int array;
  r_winners : (int * int, IM.winner) Hashtbl.t;
  r_marks : (int * int, unit) Hashtbl.t;
  r_bounds : (int * int, int) Hashtbl.t;
  r_alts : (int * int, IM.alt list) Hashtbl.t;  (** newest first *)
}

let rec ref_root r g = if r.r_parent.(g) = g then g else ref_root r r.r_parent.(g)

let plan_of cost =
  { IM.p_alg = cost; p_inputs = []; p_props = 0; p_cost = cost; p_rule = "r" }

let same_winner (a : IM.winner option) (b : IM.winner option) =
  match a, b with
  | None, None -> true
  | Some a, Some b ->
    Option.map (fun (p : IM.plan) -> p.p_cost) a.w_plan
    = Option.map (fun (p : IM.plan) -> p.p_cost) b.w_plan
    && a.w_bound = b.w_bound
  | _ -> false

let ref_merge r a b =
  let a = ref_root r a and b = ref_root r b in
  if a <> b then begin
    r.r_parent.(b) <- a;
    let moved tbl = Hashtbl.fold (fun (g, id) v acc -> if g = b then (id, v) :: acc else acc) tbl [] in
    List.iter
      (fun (id, w) ->
        match Hashtbl.find_opt r.r_winners (a, id) with
        | Some existing when IM.winner_le existing w -> ()
        | _ -> Hashtbl.replace r.r_winners (a, id) w)
      (moved r.r_winners);
    List.iter
      (fun (id, l) ->
        let existing = Option.value (Hashtbl.find_opt r.r_alts (a, id)) ~default:[] in
        Hashtbl.replace r.r_alts (a, id) (l @ existing))
      (moved r.r_alts);
    (* The dead class's marks and cached bounds are dropped. *)
    let drop tbl = Hashtbl.filter_map_inplace (fun (g, _) v -> if g = b then None else Some v) tbl in
    drop r.r_winners;
    drop r.r_marks;
    drop r.r_bounds;
    drop r.r_alts
  end

let prop_slot_space_matches_model =
  let arb =
    QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_slot_op ops)) gen_slot_ops
  in
  Helpers.qcheck_case ~count:60 "memo: goal slots match a Hashtbl model" arb (fun ops ->
      let m = IM.create (Volcano.Search_stats.create ()) in
      for p = 0 to n_goals - 1 do
        assert (IM.intern m (p, None) = p)
      done;
      let leaves = Array.init n_leaves (fun i -> IM.insert m i []) in
      let r =
        {
          r_parent = Array.init n_leaves Fun.id;
          r_winners = Hashtbl.create 64;
          r_marks = Hashtbl.create 64;
          r_bounds = Hashtbl.create 64;
          r_alts = Hashtbl.create 64;
        }
      in
      let lp g = ref_root r g in
      let agrees g id =
        let k = (ref_root r g, id) in
        same_winner (IM.winner_id m leaves.(g) id) (Hashtbl.find_opt r.r_winners k)
        && IM.in_progress m leaves.(g) id = Hashtbl.mem r.r_marks k
        && IM.alts m leaves.(g) id
           = List.rev (Option.value (Hashtbl.find_opt r.r_alts k) ~default:[])
      in
      let step op =
        match op with
        | Set_winner (g, id, c, b) ->
          let w = { IM.w_plan = Option.map plan_of c; w_bound = b } in
          IM.set_winner_id m leaves.(g) id w.w_plan b;
          Hashtbl.replace r.r_winners (ref_root r g, id) w;
          agrees g id
        | Mark (g, id) ->
          IM.mark_in_progress m leaves.(g) id;
          Hashtbl.replace r.r_marks (ref_root r g, id) ();
          agrees g id
        | Unmark (g, id) ->
          IM.unmark_in_progress m leaves.(g) id;
          Hashtbl.remove r.r_marks (ref_root r g, id);
          agrees g id
        | Lower_bound (g, id) ->
          let k = (ref_root r g, id) in
          let want =
            match Hashtbl.find_opt r.r_bounds k with
            | Some c -> c
            | None ->
              let c = Int_model.cost_lower_bound (lp g) id in
              Hashtbl.replace r.r_bounds k c;
              c
          in
          IM.lower_bound m leaves.(g) id = want && agrees g id
        | Record_alt (g, id, a) ->
          let alt = { IM.a_alg = a; a_rule = "r"; a_cost = None; a_reason = IM.Alt_completed } in
          IM.record_alt m leaves.(g) id alt;
          let k = (ref_root r g, id) in
          Hashtbl.replace r.r_alts k
            (alt :: Option.value (Hashtbl.find_opt r.r_alts k) ~default:[]);
          agrees g id
        | Merge (a, b) ->
          ignore (IM.merge m leaves.(a) leaves.(b) : IM.group);
          ref_merge r a b;
          IM.find_root m leaves.(a) = leaves.(ref_root r a)
      in
      List.for_all step ops
      (* Full sweep: every goal the model knows, every live class's
         winner count, and the slot space stays within twice its use. *)
      && Hashtbl.fold (fun (g, id) _ ok -> ok && agrees g id) r.r_winners true
      && Hashtbl.fold (fun (g, id) _ ok -> ok && agrees g id) r.r_alts true
      && List.for_all
           (fun g ->
             ref_root r g <> g
             || List.length (IM.winners_alist m leaves.(g))
                = Hashtbl.fold
                    (fun (g', _) _ n -> if g' = g then n + 1 else n)
                    r.r_winners 0)
           (List.init n_leaves Fun.id)
      &&
      let allocated, occupied = IM.goal_footprint m in
      allocated <= 2 * occupied)

(* Machine-neutral memory pin: after a full optimization, each class's
   goal table is sized by the goals that class holds. *)
let test_goal_footprint_bound () =
  List.iter
    (fun (shape, name, n) ->
      let q = Workload.generate (Workload.spec ~shape ~n_relations:n ~seed:42 ()) in
      let module M = (val Relmodel.Rel_model.make ~catalog:q.catalog ()) in
      let module S = Volcano.Search.Make (M) in
      let s = S.create () in
      ignore
        (S.optimize s (Relmodel.Rel_model.to_tree q.logical) ~required:Phys_prop.any
          : S.outcome);
      let allocated, occupied = S.Memo.goal_footprint s.S.memo in
      Alcotest.(check bool)
        (Printf.sprintf "%s %d: %d allocated goal slots <= 4 x %d occupied" name n
           allocated occupied)
        true
        (occupied > 0 && allocated <= 4 * occupied))
    [ (Workload.Clique, "clique", 6); (Workload.Grid, "grid", 9) ]

let suite =
  [
    Alcotest.test_case "insert dedup" `Quick test_insert_dedup;
    Alcotest.test_case "insert into target" `Quick test_insert_into_target;
    Alcotest.test_case "merge on duplicate derivation" `Quick test_merge_via_duplicate_derivation;
    Alcotest.test_case "merge reindexes parents" `Quick test_merge_reindexes_parents;
    Alcotest.test_case "logical props derived once" `Quick test_lprops_derived_once;
    Alcotest.test_case "winner table per goal" `Quick test_winner_table;
    Alcotest.test_case "in-progress marks" `Quick test_in_progress_marks;
    Alcotest.test_case "extract_any" `Quick test_extract_any;
    prop_insert_unique_home;
    prop_slot_space_matches_model;
    Alcotest.test_case "goal footprint tracks occupancy" `Slow test_goal_footprint_bound;
  ]
