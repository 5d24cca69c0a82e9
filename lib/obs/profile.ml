type kind = Rule | Enforcer | Operator | Engine

let kind_name = function
  | Rule -> "rule"
  | Enforcer -> "enforcer"
  | Operator -> "operator"
  | Engine -> "engine"

type cell = {
  c_kind : kind;
  c_name : string;
  mutable c_tasks : int;
  mutable c_mexprs : int;
  mutable c_plans_won : int;
  mutable c_pruned : int;
  mutable c_wasted : int;
  mutable c_ns : int;
}

let kind_code = function Rule -> 0 | Enforcer -> 1 | Operator -> 2 | Engine -> 3

(* Cells by name, one table per kind: the only place a name is hashed.
   A hit allocates nothing. *)
type table = (string, cell) Hashtbl.t array

type t = {
  pr_lock : Mutex.t;
  mutable pr_live : buf list;  (** buffers whose writer is running *)
  pr_folded : table;  (** finished writers' counts, merged *)
}

and buf = {
  pb_owner : t;
  pb_cells : table;
  mutable pb_live : bool;  (** in [pb_owner.pr_live]; touched by the writer only *)
}

let table () : table = Array.init 4 (fun _ -> Hashtbl.create 16)

let create () = { pr_lock = Mutex.create (); pr_live = []; pr_folded = table () }

let buf t = { pb_owner = t; pb_cells = table (); pb_live = false }

let iter_cells f (tbl : table) = Array.iter (Hashtbl.iter (fun _ c -> f c)) tbl

let find_cell (tbl : table) kind name =
  let cells = tbl.(kind_code kind) in
  match Hashtbl.find cells name with
  | c -> c
  | exception Not_found ->
    let c =
      {
        c_kind = kind;
        c_name = name;
        c_tasks = 0;
        c_mexprs = 0;
        c_plans_won = 0;
        c_pruned = 0;
        c_wasted = 0;
        c_ns = 0;
      }
    in
    Hashtbl.add cells name c;
    c

let cell b kind name = find_cell b.pb_cells kind name

let task c ~ns =
  c.c_tasks <- c.c_tasks + 1;
  c.c_ns <- c.c_ns + ns

let mexprs c n = c.c_mexprs <- c.c_mexprs + n

let plan_won c = c.c_plans_won <- c.c_plans_won + 1

let pruned c = c.c_pruned <- c.c_pruned + 1

let wasted c n = c.c_wasted <- c.c_wasted + n

(* A cell never charged (or already folded) is no entry: attribution
   reports only what some charge recorded. Time accrues only with
   tasks. *)
let is_zero c =
  c.c_tasks = 0 && c.c_mexprs = 0 && c.c_plans_won = 0 && c.c_pruned = 0
  && c.c_wasted = 0

let add_into (dst : table) (c : cell) =
  if not (is_zero c) then begin
    let d = find_cell dst c.c_kind c.c_name in
    d.c_tasks <- d.c_tasks + c.c_tasks;
    d.c_mexprs <- d.c_mexprs + c.c_mexprs;
    d.c_plans_won <- d.c_plans_won + c.c_plans_won;
    d.c_pruned <- d.c_pruned + c.c_pruned;
    d.c_wasted <- d.c_wasted + c.c_wasted;
    d.c_ns <- d.c_ns + c.c_ns
  end

(* Fold a finished writer's counts into the collector and drop the
   buffer from the live list. Its cells are zeroed, not removed, so
   handles the writer cached stay valid for its next run. *)
let retire b =
  let t = b.pb_owner in
  Mutex.protect t.pr_lock (fun () ->
      iter_cells
        (fun c ->
          add_into t.pr_folded c;
          c.c_tasks <- 0;
          c.c_mexprs <- 0;
          c.c_plans_won <- 0;
          c.c_pruned <- 0;
          c.c_wasted <- 0;
          c.c_ns <- 0)
        b.pb_cells;
      t.pr_live <- List.filter (fun x -> x != b) t.pr_live;
      b.pb_live <- false)

let writing b f =
  if b.pb_live then f ()
  else begin
    let t = b.pb_owner in
    Mutex.protect t.pr_lock (fun () ->
        b.pb_live <- true;
        t.pr_live <- b :: t.pr_live);
    Fun.protect ~finally:(fun () -> retire b) f
  end

let live_buffers t = Mutex.protect t.pr_lock (fun () -> List.length t.pr_live)

(* ------------------------------------------------------------------ *)
(* Merged report                                                       *)
(* ------------------------------------------------------------------ *)

type entry = {
  kind : kind;
  name : string;
  tasks : int;
  mexprs : int;
  plans_won : int;
  pruned : int;
  wasted : int;
  ns : int64;
}

let report t =
  let merged = table () in
  Mutex.protect t.pr_lock (fun () ->
      iter_cells (add_into merged) t.pr_folded;
      List.iter (fun b -> iter_cells (add_into merged) b.pb_cells) t.pr_live);
  let entries = ref [] in
  iter_cells
    (fun c ->
      entries :=
        {
          kind = c.c_kind;
          name = c.c_name;
          tasks = c.c_tasks;
          mexprs = c.c_mexprs;
          plans_won = c.c_plans_won;
          pruned = c.c_pruned;
          wasted = c.c_wasted;
          ns = Int64.of_int c.c_ns;
        }
        :: !entries)
    merged;
  List.sort
    (fun a b ->
      let c = Int64.compare b.ns a.ns in
      if c <> 0 then c else compare (a.kind, a.name) (b.kind, b.name))
    !entries

let total_tasks t =
  List.fold_left (fun acc e -> acc + e.tasks) 0 (report t)

let ms_of e = Int64.to_float e.ns /. 1e6

let to_json t =
  let entries =
    List.map
      (fun e ->
        Json.Obj
          [
            ("kind", Json.Str (kind_name e.kind));
            ("name", Json.Str e.name);
            ("tasks", Json.int e.tasks);
            ("mexprs", Json.int e.mexprs);
            ("plans_won", Json.int e.plans_won);
            ("pruned", Json.int e.pruned);
            ("wasted", Json.int e.wasted);
            ("time_ms", Json.Num (ms_of e));
          ])
      (report t)
  in
  Json.Obj
    [
      ("total_tasks", Json.int (total_tasks t));
      ("entries", Json.Arr entries);
    ]

let pp_table ?(top = 20) ppf t =
  let entries = report t in
  let shown = List.filteri (fun i _ -> i < top) entries in
  Format.fprintf ppf "%-9s %-28s %8s %8s %6s %7s %7s %10s@."
    "kind" "name" "tasks" "mexprs" "won" "pruned" "wasted" "time_ms";
  List.iter
    (fun e ->
      Format.fprintf ppf "%-9s %-28s %8d %8d %6d %7d %7d %10.3f@."
        (kind_name e.kind) e.name e.tasks e.mexprs e.plans_won e.pruned
        e.wasted (ms_of e))
    shown;
  let rest = List.length entries - List.length shown in
  if rest > 0 then Format.fprintf ppf "... and %d more@." rest

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' | '_' -> c
      | 'A' .. 'Z' -> Char.lowercase_ascii c
      | _ -> '_')
    name

(* Export rule/enforcer attribution as registry gauges. Each export
   merges one report, indexed by kind and name, before any gauge reads
   it; so the gauges track a live search, and a scrape costs one report,
   not one per gauge. *)
let register ?(prefix = "rule_") t reg =
  let index = ref (Hashtbl.create 0) in
  Metrics.before_export reg (fun () ->
      let tbl = Hashtbl.create 64 in
      List.iter (fun e -> Hashtbl.replace tbl (e.kind, e.name) e) (report t);
      index := tbl);
  let seen = Hashtbl.create 16 in
  let publish e =
    let base =
      match e.kind with
      | Rule -> prefix ^ sanitize e.name
      | Enforcer -> prefix ^ "enforcer_" ^ sanitize e.name
      | Operator | Engine -> ""
    in
    if base <> "" && not (Hashtbl.mem seen base) then begin
      Hashtbl.add seen base ();
      let field suffix pick =
        Metrics.gauge reg
          ~help:(Printf.sprintf "profiler %s for %s %s" suffix (kind_name e.kind) e.name)
          (base ^ "_" ^ suffix)
          (fun () ->
            match Hashtbl.find_opt !index (e.kind, e.name) with
            | Some x -> pick x
            | None -> 0.)
      in
      field "tasks" (fun x -> float_of_int x.tasks);
      field "mexprs" (fun x -> float_of_int x.mexprs);
      field "plans_won" (fun x -> float_of_int x.plans_won);
      field "wasted" (fun x -> float_of_int x.wasted);
      field "time_ms" ms_of
    end
  in
  List.iter publish (report t)
