(** The search engine shared by all generated optimizers (paper §3):
    directed dynamic programming. FindBestPlan (Figure 2) is realized as
    an {e explicit task engine}: instead of direct recursion, the search
    is a work stack of first-class tasks — [Optimize_group],
    [Explore_group], [Optimize_mexpr], [Apply_transform],
    [Optimize_inputs], [Apply_enforcer] — driven by a single stepper
    loop ({!step}). This is the reification that the Cascades lineage
    applied to the same algorithm, and it buys three things recursion
    cannot give: deterministic step budgets and wall-clock timeouts that
    abort cleanly mid-goal (anytime optimization), hierarchical span
    tracing of the task tree ({!Obs.Trace}), and resumable searches (a
    paused run continues under a higher budget without redoing work).

    The paper's semantics are preserved exactly: memoized winners {e
    and} failures per (group, property vector, limit), in-progress
    marking, excluding property vectors, promise ordering, and
    branch-and-bound limits. One deliberate restructuring carried over
    from the recursive engine: where Figure 2 lists transformations
    among the moves of a goal, we first close the goal's equivalence
    class under the transformation rules ([Explore_group] tasks) and
    then enumerate algorithm and enforcer moves over all
    multi-expressions in the class. For exhaustive search the two orders
    visit exactly the same plans. *)

module Make (M : Signatures.MODEL) = struct
  module Memo = Memo.Make (M)

  (** Step/time budgets for one optimization run. Both are cumulative
      over the run, including across {!resume} calls, so a paused run
      resumed with a larger budget continues instead of starting its
      accounting over. [max_tasks] is deterministic; [max_millis] is
      wall-clock. *)
  type budget = {
    max_tasks : int option;
    max_millis : float option;
  }

  let unlimited = { max_tasks = None; max_millis = None }

  let budget ?max_tasks ?max_millis () = { max_tasks; max_millis }

  type config = {
    pruning : bool;  (** branch-and-bound via cost limits (Figure 2) *)
    guided : bool;
        (** guided pruning on top of Figure 2 (no effect unless
            [pruning]): kill goals whose group cost lower bound
            ({!Signatures.MODEL.cost_lower_bound}) already exceeds
            their limit, and tighten each input's limit by the lower
            bounds of its unresolved siblings. Sound bounds leave every
            winner bit-identical; only effort shrinks. *)
    max_moves : int option;
        (** pursue only the k most promising moves per goal — the
            paper's heuristic-guidance hook ("In the future, a subset of
            the moves will be selected"); [None] = exhaustive *)
    budget : budget;
        (** default budget for {!optimize}; {!unlimited} reproduces the
            exhaustive search of the paper *)
    tracer : Obs.Trace.t option;
        (** hierarchical span collector: one [goal] span per (group,
            property, limit) optimization goal with its outcome, and one
            [task] span per executed engine task nested under its goal.
            [None] (the default) records nothing. With no tracer,
            profiler or recorder and [explain] off, each engine event
            costs one branch. *)
    explain : bool;
        (** record losing alternatives (and their losing reasons) in
            the memo as the search abandons or completes each move, for
            {!explain_run}. Recording never changes pursuit order, pruning,
            or winners — only what the memo remembers about them. *)
    profiler : Obs.Profile.t option;
        (** per-rule / per-enforcer / per-operator effort attribution:
            exactly one charge per executed task (so per-entry task
            sums equal the task counters), plus mexprs generated per
            rule firing, plans won, goals pruned, and wasted work.
            Observation-only: recording never changes pursuit order,
            pruning, or winners. [None] (the default) records nothing. *)
    recorder : Obs.Flight_recorder.t option;
        (** always-on flight recorder: a fixed-size lock-free ring of
            recent engine events (task begin/end, publish, prune,
            incumbent improvement), dumped post-mortem when the run
            ends abnormally (a budget pause). ~Zero steady-state cost
            and plan-inert, like the profiler. *)
  }

  let default_config =
    {
      pruning = true;
      guided = true;
      max_moves = None;
      budget = unlimited;
      tracer = None;
      explain = false;
      profiler = None;
      recorder = None;
    }

  (* Operator cells keyed by a representative mexpr's operator, hashed
     with the hash the memo already cached. *)
  module Op_tbl = Hashtbl.Make (struct
    type t = Memo.mexpr

    let equal (a : t) (b : t) = M.op_equal a.op b.op

    let hash (m : t) = m.op_h
  end)

  (* The searcher's profiler state: its buffer and the cells the
     engine charges, each resolved once — so charging a task is a few
     integer adds, never a name built or hashed. Names are built once
     per distinct operator and enforcer algorithm. *)
  type prof = {
    pf_buf : Obs.Profile.buf;
    pf_transforms : Obs.Profile.cell array;  (** by transformation rule index *)
    pf_impls : Obs.Profile.cell array;  (** by implementation rule index *)
    pf_optimize_group : Obs.Profile.cell;
    pf_explore_group : Obs.Profile.cell;
    mutable pf_ops : Obs.Profile.cell array;
        (** logical operator cells by mexpr [mid], resolved on first
            use (a mexpr's operator never changes); an unresolved slot
            holds [pf_optimize_group], which no operator resolves to *)
    pf_op_cells : Obs.Profile.cell Op_tbl.t;  (** the same, by operator *)
    pf_enforcers : (M.alg, Obs.Profile.cell) Hashtbl.t;
        (** enforcer cells by algorithm value (structural equality: the
            name is a function of the value) *)
  }

  (* Everything that watches one searcher, built once by {!create}.
     Only the observation section below reads it. *)
  type observers = {
    o_trace : Obs.Trace.buf option;  (** the searcher's span buffer (label 0) *)
    o_prof : prof option;
    o_recorder : Obs.Flight_recorder.t option;
    mutable o_ring : Obs.Flight_recorder.ring option;  (** held while it runs *)
    o_explain : bool;  (** record losing alternatives in the memo *)
    o_timed : bool;  (** a profiler or recorder: the task bracket reads the clock *)
    mutable o_ns0 : int;  (** the clock when the running task began *)
    mutable o_span : Obs.Trace.span option;  (** the running task's span *)
    mutable o_closing : (Obs.Trace.span * string) list;
        (** goal spans the running task concluded, with their outcomes:
            they close after its span, so the bracketing is proper *)
  }

  type t = {
    memo : Memo.t;
    config : config;
    stats : Search_stats.t;
    obs : observers option;  (** [None]: nothing watches this searcher *)
  }

  (** A fully extracted plan: the optimizer's output. *)
  type plan_tree = {
    alg : M.alg;
    children : plan_tree list;
    props : M.phys_props;
    cost : M.cost;  (** total cost of this subtree *)
  }

  let stats t = t.stats

  let memo t = t.memo

  (* Capture a query tree in the memo bottom-up. *)
  let rec insert_query t (tree : M.op Tree.t) : Memo.group =
    let inputs = List.map (insert_query t) (Tree.inputs tree) in
    Memo.insert t.memo (Tree.op tree) inputs

  let lookup t g = Memo.lprops t.memo g

  (* ------------------------------------------------------------------ *)
  (* Rule bindings                                                       *)
  (* ------------------------------------------------------------------ *)

  let rule_index = List.mapi (fun i r -> (i, r)) M.transforms

  let n_implementations = List.length M.implementations

  let implementation_index = List.mapi (fun i r -> (i, r)) M.implementations

  let cartesian lists =
    List.fold_right
      (fun options acc ->
        List.concat_map (fun o -> List.map (fun rest -> o :: rest) acc) options)
      lists [ [] ]

  (* All bindings of [pattern] rooted at multi-expression [m]. Unlike
     the old recursive engine, binding enumeration never explores groups
     inline: tasks that enumerate bindings first schedule
     [Explore_group] for every group an [Op] sub-pattern descends into
     (see [missing_for_mexpr]), so by the time [bindings_at] runs the
     enumeration is complete over already-closed classes. *)
  let rec bindings_below t pattern g : M.op Rule.binding list =
    match pattern with
    | Rule.Any -> [ Rule.Group (Memo.find_root t.memo g) ]
    | Rule.Op (_, _) ->
      List.concat_map (fun m -> bindings_at t pattern m) (Memo.mexprs t.memo g)

  and bindings_at t pattern (m : Memo.mexpr) : M.op Rule.binding list =
    match pattern with
    | Rule.Any -> assert false (* callers match roots against Op patterns *)
    | Rule.Op (matches, subs) ->
      if (not (matches m.op)) || List.length subs <> List.length m.inputs then []
      else
        cartesian (List.map2 (fun p g -> bindings_below t p g) subs m.inputs)
        |> List.map (fun inputs -> Rule.Node (m.op, inputs))

  (* Groups that [pattern] descends into below [m] which are neither
     explored nor mid-exploration: the exploration prerequisites of a
     rule application. A group currently being explored counts as
     satisfied — the cyclic case, where the recursive engine likewise
     proceeded with the class's partial contents. *)
  let rec missing_below t pattern g acc =
    match pattern with
    | Rule.Any -> acc
    | Rule.Op (matches, subs) ->
      let g = Memo.find_root t.memo g in
      if not (Memo.is_explored t.memo g || Memo.is_exploring t.memo g) then g :: acc
      else
        List.fold_left
          (fun acc (m : Memo.mexpr) ->
            if matches m.op && List.length subs = List.length m.inputs then
              List.fold_left2
                (fun acc p gi -> missing_below t p gi acc)
                acc subs m.inputs
            else acc)
          acc (Memo.mexprs t.memo g)

  let missing_for_mexpr t pattern (m : Memo.mexpr) : Memo.group list =
    match pattern with
    | Rule.Any -> []
    | Rule.Op (matches, subs) ->
      if (not (matches m.op)) || List.length subs <> List.length m.inputs then []
      else
        List.fold_left2 (fun acc p gi -> missing_below t p gi acc) [] subs m.inputs
        |> List.sort_uniq compare

  (* Insert the expression a rule produced. Nested nodes become (new or
     existing) classes of their own — Figure 3: expression C "requires a
     new equivalence class"; the root joins the class being explored. *)
  let rec insert_binding t ?target (b : M.op Rule.binding) : Memo.group =
    match b with
    | Rule.Group g -> g
    | Rule.Node (op, subs) ->
      let inputs = List.map (fun b -> insert_binding t b) subs in
      Memo.insert t.memo ?target op inputs

  (* ------------------------------------------------------------------ *)
  (* Moves                                                               *)
  (* ------------------------------------------------------------------ *)

  type move =
    | Impl of {
        alg : M.alg;
        input_groups : Memo.group list;
        input_reqs : M.phys_props list;  (** one alternative vector *)
        promise : int;
        rule : string;  (** producing implementation rule, for provenance *)
        ridx : int;  (** that rule's index in [M.implementations] *)
      }
    | Enforce of {
        alg : M.alg;
        relaxed : M.phys_props;
        excluded : M.phys_props;
        promise : int;
      }

  let promise_of = function Impl m -> m.promise | Enforce m -> m.promise

  (* Implementation moves of rule [rule] rooted at multi-expression [m].
     Most rules' root operators do not match most multi-expressions, so
     that test comes before any closure or list is allocated. *)
  let impl_moves_at t ~ridx
      (rule : (M.op, M.alg, M.logical_props, M.phys_props) Rule.implement)
      (m : Memo.mexpr) ~required : move list =
    match rule.i_pattern with
    | Rule.Op (matches, subs)
      when (not (matches m.op)) || List.length subs <> List.length m.inputs ->
      []
    | Rule.Any | Rule.Op _ ->
      bindings_at t rule.i_pattern m
      |> List.concat_map (fun b ->
             rule.i_apply ~lookup:(lookup t) ~required b
             |> List.concat_map (fun (c : _ Rule.impl_choice) ->
                    List.map
                      (fun vector ->
                        if List.length vector <> List.length c.c_inputs then
                          invalid_arg
                            (Printf.sprintf
                               "rule %s: alternative vector arity mismatch for %s"
                               rule.i_name (M.alg_name c.c_alg));
                        Impl
                          {
                            alg = c.c_alg;
                            input_groups = List.map (Memo.find_root t.memo) c.c_inputs;
                            input_reqs = vector;
                            promise = rule.i_promise;
                            rule = rule.i_name;
                            ridx;
                          })
                      c.c_alternatives))

  let enforcer_moves ~props ~required =
    List.map
      (fun (alg, relaxed, excluded) -> Enforce { alg; relaxed; excluded; promise = 0 })
      (M.enforcers ~props ~required)

  (* ------------------------------------------------------------------ *)
  (* Tasks                                                               *)
  (* ------------------------------------------------------------------ *)

  let cost_lt a b = M.cost_compare a b < 0

  let cost_le a b = M.cost_compare a b <= 0

  (* Skip moves whose delivered properties already satisfy the excluding
     vector: "since merge-join is able to satisfy the excluding
     properties, it would not be considered a suitable algorithm for the
     sort input" (§3). *)
  let excluded_by ~excluded ~delivered =
    match excluded with
    | None -> false
    | Some ex -> M.pp_covers ~provided:delivered ~required:ex

  (* Where a finished goal writes its answer. The stack discipline
     guarantees the reader (the task pushed immediately beneath the
     goal) runs only after the goal's whole task subtree completed. *)
  type slot = { mutable answer : Memo.plan option }

  (* One (group, required, excluding, limit) optimization goal — the
     state Figure 2's FindBestPlan kept in its activation record, made
     explicit so the stepper can leave and re-enter it. *)
  type goal_state = {
    gs_group : Memo.group;
    gs_key_id : int;  (** interned id of (required, excluded) *)
    gs_required : M.phys_props;
    gs_excluded : M.phys_props option;
    gs_limit : M.cost;  (** the caller's limit *)
    mutable gs_bound : M.cost;  (** running branch-and-bound bound *)
    mutable gs_best : Memo.plan option;
    gs_impl : move list array;
        (** per-implementation-rule collection buckets, newest move first *)
    mutable gs_moves : move list;  (** pending moves in pursuit order *)
    mutable gs_phase : goal_phase;
    gs_slot : slot;
    mutable gs_span : Obs.Trace.span option;
        (** open tracing span for this goal, when tracing is on *)
  }

  and goal_phase =
    | G_init  (** consult the winner table; start a real optimization if needed *)
    | G_collect  (** class explored: fan out move generation per multi-expression *)
    | G_pursue  (** assemble + promise-sort moves once, then pursue sequentially *)

  (* Pursuit of one algorithm move: optimize inputs left to right,
     tightening the remaining budget (Figure 2: Limit - TotalCost). *)
  and impl_state = {
    im_goal : goal_state;
    im_alg : M.alg;
    im_rule : string;  (** producing implementation rule, for provenance *)
    im_ridx : int;  (** its index in [M.implementations] *)
    im_start : int;
        (** [run.r_tasks] when pursuit began, for the profiler's
            wasted-work accounting *)
    im_delivered : M.phys_props;
    mutable im_acc_cost : M.cost;  (** local cost + completed inputs *)
    mutable im_done : (Memo.group * M.phys_props * M.phys_props option) list;
        (** completed input goals, reversed *)
    mutable im_pending : (Memo.group * M.phys_props * M.cost) list;
        (** remaining inputs with their cached cost lower bounds, for
            guided limit tightening *)
    mutable im_inflight : (Memo.group * M.phys_props * slot) option;
  }

  (* Pursuit of one enforcer move: §6 — the enforcer's cost is
     subtracted from the bound before its input is optimized. *)
  and enf_state = {
    en_goal : goal_state;
    en_alg : M.alg;
    en_start : int;
        (** [run.r_tasks] when pursuit began, for the profiler's
            wasted-work accounting *)
    en_delivered : M.phys_props;
    en_relaxed : M.phys_props;
    en_excluded : M.phys_props;
    en_local : M.cost;
    en_slot : slot;
  }

  and task =
    | T_optimize_group of goal_state
    | T_explore_group of Memo.group  (** begin exploration *)
    | T_explore_round of Memo.group  (** one sweep of the exploration fixpoint *)
    | T_optimize_mexpr of goal_state * Memo.mexpr
    | T_apply_transform of Memo.group * Memo.mexpr * int  (** (target, mexpr, rule) *)
    | T_optimize_inputs of impl_state
    | T_apply_enforcer of enf_state

  let task_kind : task -> Search_stats.task_kind = function
    | T_optimize_group _ -> Search_stats.Optimize_group
    | T_explore_group _ | T_explore_round _ -> Search_stats.Explore_group
    | T_optimize_mexpr _ -> Search_stats.Optimize_mexpr
    | T_apply_transform _ -> Search_stats.Apply_transform
    | T_optimize_inputs _ -> Search_stats.Optimize_inputs
    | T_apply_enforcer _ -> Search_stats.Apply_enforcer

  let task_group : task -> Memo.group = function
    | T_optimize_group gs -> gs.gs_group
    | T_explore_group g | T_explore_round g -> g
    | T_optimize_mexpr (gs, _) -> gs.gs_group
    | T_apply_transform (g, _, _) -> g
    | T_optimize_inputs st -> st.im_goal.gs_group
    | T_apply_enforcer st -> st.en_goal.gs_group

  (* ------------------------------------------------------------------ *)
  (* Runs: one resumable optimization                                    *)
  (* ------------------------------------------------------------------ *)

  type stop_reason =
    | Task_budget  (** the deterministic step budget was exhausted *)
    | Time_budget  (** the wall-clock budget was exhausted *)

  type status =
    | Complete
    | Paused of stop_reason

  type run = {
    rt : t;
    r_root : Memo.group;
    r_goal : goal_state;  (** the root goal; its best-so-far is the anytime plan *)
    mutable r_stack : task list;
    mutable r_depth : int;
    mutable r_tasks : int;  (** tasks executed in this run (not the searcher) *)
    mutable r_incumbents : (int * M.cost) list;
        (** root-goal incumbent history, newest first: [(r_tasks, cost)]
            at every strict improvement of the root goal's best-so-far
            plan — the anytime cost-vs-effort curve of the run *)
    mutable r_millis : float;  (** active wall-clock milliseconds, across resumes *)
    mutable r_status : status option;  (** [Some Complete] once the stack drains *)
    mutable r_open_goals : Obs.Trace.span list;
        (** open goal spans, innermost first — the parent chain for the
            next task span; empty when tracing is off *)
  }

  let push run task =
    run.r_stack <- task :: run.r_stack;
    run.r_depth <- run.r_depth + 1;
    Search_stats.note_stack_depth run.rt.stats run.r_depth

  (* ------------------------------------------------------------------ *)
  (* Observation: one function per engine event                          *)
  (* ------------------------------------------------------------------ *)

  (* The span tracer, the profiler, the flight recorder and EXPLAIN's
     losing alternatives are reached from here and nowhere else. Task
     bodies make one call per event, which costs one branch when
     nothing watches; nothing here feeds back into the search. *)

  (* A mexpr's operator cell, resolved once per mexpr and named once
     per distinct operator. *)
  let op_cell pf (m : Memo.mexpr) =
    let n = Array.length pf.pf_ops in
    if m.mid >= n then begin
      let grown = Array.make (max (m.mid + 1) (2 * n)) pf.pf_optimize_group in
      Array.blit pf.pf_ops 0 grown 0 n;
      pf.pf_ops <- grown
    end;
    let c = pf.pf_ops.(m.mid) in
    if c != pf.pf_optimize_group then c
    else begin
      let c =
        match Op_tbl.find pf.pf_op_cells m with
        | c -> c
        | exception Not_found ->
          let c = Obs.Profile.cell pf.pf_buf Obs.Profile.Operator (M.op_name m.op) in
          Op_tbl.add pf.pf_op_cells m c;
          c
      in
      pf.pf_ops.(m.mid) <- c;
      c
    end

  (* An enforcer's cell, named once per distinct enforcer. *)
  let enforcer_cell pf alg =
    match Hashtbl.find pf.pf_enforcers alg with
    | c -> c
    | exception Not_found ->
      let c = Obs.Profile.cell pf.pf_buf Obs.Profile.Enforcer (M.alg_name alg) in
      Hashtbl.add pf.pf_enforcers alg c;
      c

  (* The cell a task's effort is charged to — exactly one charge per
     executed task, so per-entry task sums equal the task counters.
     Transform and input-optimization tasks charge their rule; enforcer
     tasks their algorithm; mexpr tasks their logical operator; engine
     bookkeeping tasks a fixed engine entry. *)
  let task_cell pf : task -> Obs.Profile.cell = function
    | T_optimize_group _ -> pf.pf_optimize_group
    | T_explore_group _ | T_explore_round _ -> pf.pf_explore_group
    | T_optimize_mexpr (_, m) -> op_cell pf m
    | T_apply_transform (_, _, i) -> pf.pf_transforms.(i)
    | T_optimize_inputs st -> pf.pf_impls.(st.im_ridx)
    | T_apply_enforcer st -> enforcer_cell pf st.en_alg

  (* Kind-specific [detail] payload of ring events about tasks. *)
  let task_code : task -> int = function
    | T_optimize_group _ -> 0
    | T_explore_group _ -> 1
    | T_explore_round _ -> 2
    | T_optimize_mexpr _ -> 3
    | T_apply_transform _ -> 4
    | T_optimize_inputs _ -> 5
    | T_apply_enforcer _ -> 6

  let make_prof pr =
    let pb = Obs.Profile.buf pr in
    let rule name = Obs.Profile.cell pb Obs.Profile.Rule name in
    {
      pf_buf = pb;
      pf_transforms = Array.of_list (List.map (fun r -> rule r.Rule.t_name) M.transforms);
      pf_impls = Array.of_list (List.map (fun r -> rule r.Rule.i_name) M.implementations);
      pf_optimize_group = Obs.Profile.cell pb Obs.Profile.Engine "optimize_group";
      pf_explore_group = Obs.Profile.cell pb Obs.Profile.Engine "explore_group";
      pf_ops = [||];
      pf_op_cells = Op_tbl.create 64;
      pf_enforcers = Hashtbl.create 16;
    }

  (* [None] when [c] attaches no observer. *)
  let observers (c : config) =
    if c.tracer = None && c.profiler = None && c.recorder = None && not c.explain then None
    else
      Some
        {
          o_trace = Option.map (fun tr -> Obs.Trace.buf tr ~track:0) c.tracer;
          o_prof = Option.map make_prof c.profiler;
          o_recorder = c.recorder;
          o_ring = None;
          o_explain = c.explain;
          o_timed = c.profiler <> None || c.recorder <> None;
          o_ns0 = 0;
          o_span = None;
          o_closing = [];
        }

  let create ?(config = default_config) () =
    let stats = Search_stats.create () in
    { memo = Memo.create stats; config; stats; obs = observers config }

  (* A ring event about group [group]. *)
  let ring_event t o kind ~group ~detail =
    match o.o_ring with
    | None -> ()
    | Some ring ->
      Obs.Flight_recorder.record ring kind ~group:(Memo.find_root t.memo group) ~detail

  (* A task's ring event, stamped with a clock read it shares with the
     profiler. *)
  let ring_task t o kind ~ns task =
    match o.o_ring with
    | None -> ()
    | Some ring ->
      Obs.Flight_recorder.record_at ring kind ~ns
        ~group:(Memo.find_root t.memo (task_group task))
        ~detail:(task_code task)

  (* The parent span of a task: its goal's span if the task carries a
     goal, the innermost open goal of the run otherwise. *)
  let task_parent run task =
    let own =
      match task with
      | T_optimize_group gs | T_optimize_mexpr (gs, _) -> gs.gs_span
      | T_optimize_inputs st -> st.im_goal.gs_span
      | T_apply_enforcer st -> st.en_goal.gs_span
      | T_explore_group _ | T_explore_round _ | T_apply_transform _ -> None
    in
    match own with
    | Some _ -> own
    | None -> ( match run.r_open_goals with sp :: _ -> Some sp | [] -> None)

  (* Event: a task begins. A goal's first task begins the goal: its span
     opens first, nested under the innermost open goal (so the span tree
     mirrors Figure 2's recursion), and the goal's whole task subtree
     nests inside it. *)
  let task_begin run task =
    match run.rt.obs with
    | None -> ()
    | Some o -> (
      let t = run.rt in
      if o.o_timed then begin
        o.o_ns0 <- Obs.Clock.now_int ();
        ring_task t o Obs.Flight_recorder.Task_begin ~ns:o.o_ns0 task
      end;
      match o.o_trace with
      | None -> ()
      | Some buf ->
        (match task with
         | T_optimize_group gs when gs.gs_phase = G_init && gs.gs_span = None ->
           let parent = match run.r_open_goals with sp :: _ -> Some sp | [] -> None in
           let sp =
             Obs.Trace.open_span buf ?parent ~cat:"goal"
               ~group:(Memo.find_root t.memo gs.gs_group)
               ~args:
                 [
                   ("required", M.pp_to_string gs.gs_required);
                   ("limit", M.cost_to_string gs.gs_limit);
                 ]
               "goal"
           in
           gs.gs_span <- Some sp;
           run.r_open_goals <- sp :: run.r_open_goals
         | _ -> ());
        o.o_span <-
          Some
            (Obs.Trace.open_span buf ?parent:(task_parent run task) ~cat:"task"
               ~group:(Memo.find_root t.memo (task_group task))
               (Search_stats.task_kind_name (task_kind task))))

  (* Event: a task ended, [outcome] "abandoned" if it raised. Its span
     closes, then the spans of the goals it concluded: the task span is
     its goal's last child. The profiler and the recorder share one
     clock read, and a task that raised is charged too, as the task
     counters count it (attribution parity). *)
  let task_end ?outcome run task =
    match run.rt.obs with
    | None -> ()
    | Some o ->
      (match o.o_span with
       | None -> ()
       | Some sp ->
         o.o_span <- None;
         Obs.Trace.close ?outcome sp;
         let closing = List.rev o.o_closing in
         o.o_closing <- [];
         List.iter (fun (sp, outcome) -> Obs.Trace.close ~outcome sp) closing);
      if o.o_timed then begin
        let ns = Obs.Clock.now_int () in
        (match o.o_prof with
         | None -> ()
         | Some pf -> Obs.Profile.task (task_cell pf task) ~ns:(ns - o.o_ns0));
        ring_task run.rt o Obs.Flight_recorder.Task_end ~ns task
      end

  (* Event: goal [gs] concluded with [outcome] ("won", "failed", "hit",
     "pruned-lb" or "cycle"); its best plan, if any, is credited to the
     rule or enforcer that produced it. *)
  let goal_concluded run gs outcome =
    match run.rt.obs with
    | None -> ()
    | Some o -> (
      (match (gs.gs_best, o.o_prof) with
       | Some p, Some pf ->
         Obs.Profile.plan_won
           (if p.Memo.p_rule = "enforcer" then enforcer_cell pf p.Memo.p_alg
            else Obs.Profile.cell pf.pf_buf Obs.Profile.Rule p.Memo.p_rule)
       | _ -> ());
      match gs.gs_span with
      | None -> ()
      | Some sp ->
        gs.gs_span <- None;
        (match run.r_open_goals with
         | top :: rest when top == sp -> run.r_open_goals <- rest
         | l -> run.r_open_goals <- List.filter (fun s -> s != sp) l);
        o.o_closing <- (sp, outcome) :: o.o_closing)

  (* Event: group [g]'s goal failed on its cost lower bound alone. *)
  let group_pruned run g =
    match run.rt.obs with
    | None -> ()
    | Some o ->
      (match o.o_prof with None -> () | Some pf -> Obs.Profile.pruned pf.pf_optimize_group);
      ring_event run.rt o Obs.Flight_recorder.Prune ~group:g ~detail:2

  (* Event: goal [id] of group [g] published its winner or failure. *)
  let winner_published t g id =
    match t.obs with
    | None -> ()
    | Some o -> ring_event t o Obs.Flight_recorder.Publish ~group:g ~detail:id

  (* The [ridx] {!move_lost} takes for an enforcer move. *)
  let enforcer_ridx = -1

  let implementation_names =
    Array.of_list (List.map (fun r -> r.Rule.i_name) M.implementations)

  (* EXPLAIN provenance: why a move of [gs] lost, or that it completed. *)
  let record_alt t gs ~alg ~rule ~cost ~reason =
    Memo.record_alt t.memo (Memo.find_root t.memo gs.gs_group) gs.gs_key_id
      { Memo.a_alg = alg; a_rule = rule; a_cost = cost; a_reason = reason }

  (* Event: a move of [gs] — implementation rule [ridx], or an enforcer
     — lost after [spent] tasks: pruned over the bound (at partial cost
     [cost]) or by its lower bound, or its input goal failed. *)
  let move_lost run gs ~ridx ~alg ~cost ~reason ~spent =
    match run.rt.obs with
    | None -> ()
    | Some o ->
      let pruned = reason <> Memo.Alt_input_failed in
      let enforcer = ridx = enforcer_ridx in
      (match o.o_prof with
       | None -> ()
       | Some pf ->
         let cell = if enforcer then enforcer_cell pf alg else pf.pf_impls.(ridx) in
         if pruned then Obs.Profile.pruned cell;
         Obs.Profile.wasted cell spent);
      if pruned then
        ring_event run.rt o Obs.Flight_recorder.Prune ~group:gs.gs_group
          ~detail:(if enforcer then 1 else 0);
      if o.o_explain then
        record_alt run.rt gs ~alg
          ~rule:(if enforcer then "enforcer" else implementation_names.(ridx))
          ~cost ~reason

  (* Event: a candidate plan of [gs] completed. *)
  let candidate_completed run gs (p : Memo.plan) =
    match run.rt.obs with
    | Some { o_explain = true; _ } ->
      record_alt run.rt gs ~alg:p.p_alg ~rule:p.p_rule ~cost:(Some p.p_cost)
        ~reason:Memo.Alt_completed
    | Some { o_explain = false; _ } | None -> ()

  (* Event: the root goal found a better plan. *)
  let root_incumbent run gs =
    match run.rt.obs with
    | None -> ()
    | Some o ->
      ring_event run.rt o Obs.Flight_recorder.Incumbent ~group:gs.gs_group
        ~detail:run.r_tasks

  (* Event: transformation rule [i] fired and the memo kept [n] new
     mexprs (it dedups the rest). *)
  let mexprs_generated t i n =
    match t.obs with
    | Some { o_prof = Some pf; _ } -> Obs.Profile.mexprs pf.pf_transforms.(i) n
    | Some { o_prof = None; _ } | None -> ()

  (* The run bracket: [f] runs with the profiler buffer live (its counts
     fold into the collector when [f] ends) and a recorder ring held
     (handed back when [f] ends, so the next run records on over it). *)
  let watched t f =
    match t.obs with
    | None -> f ()
    | Some o -> (
      let recording () =
        match o.o_recorder with
        | None -> f ()
        | Some fr ->
          Obs.Flight_recorder.recording fr (fun ring ->
              o.o_ring <- Some ring;
              Fun.protect ~finally:(fun () -> o.o_ring <- None) f)
      in
      match o.o_prof with
      | None -> recording ()
      | Some pf -> Obs.Profile.writing pf.pf_buf recording)

  (* Event: the budget paused the run. That is an abnormal end, so the
     flight recorder dumps what the engine was doing. *)
  let run_paused t reason =
    match t.obs with
    | Some { o_recorder = Some fr; _ } ->
      Obs.Flight_recorder.trigger fr
        ~reason:
          (match reason with Task_budget -> "task-budget" | Time_budget -> "time-budget")
    | Some { o_recorder = None; _ } | None -> ()

  (* ------------------------------------------------------------------ *)
  (* Task bodies                                                         *)
  (* ------------------------------------------------------------------ *)

  (* Goal state lives in the memo, addressed by the goal's interned key
     id (the memo's hash-consing fast path). *)
  let record_winner t g id plan bound =
    winner_published t g id;
    Memo.set_winner_id t.memo g id plan bound

  let new_goal t ~group ~required ~excluded ~limit slot =
    {
      gs_group = Memo.find_root t.memo group;
      gs_key_id = Memo.intern t.memo (required, excluded);
      gs_required = required;
      gs_excluded = excluded;
      gs_limit = limit;
      gs_bound = (if t.config.pruning then limit else M.cost_infinite);
      gs_best = None;
      gs_impl = Array.make (max 1 n_implementations) [];
      gs_moves = [];
      gs_phase = G_init;
      gs_slot = slot;
      gs_span = None;
    }

  (* Record a completed candidate plan against the goal, tightening the
     branch-and-bound bound (Figure 2's Limit update). Moves are pursued
     one at a time in promise order, so on an exact cost tie the
     candidate found first — the more promising move — is kept. *)
  let consider run gs (candidate : Memo.plan) =
    let t = run.rt in
    candidate_completed run gs candidate;
    let improved =
      match gs.gs_best with
      | None -> (not t.config.pruning) || cost_le candidate.p_cost gs.gs_limit
      | Some b -> cost_lt candidate.p_cost b.p_cost
    in
    if improved && M.pp_covers ~provided:candidate.p_props ~required:gs.gs_required
    then begin
      if gs == run.r_goal then begin
        if gs.gs_best <> None then
          t.stats.Search_stats.anytime_improvements <-
            t.stats.Search_stats.anytime_improvements + 1;
        root_incumbent run gs;
        run.r_incumbents <- (run.r_tasks, candidate.p_cost) :: run.r_incumbents
      end;
      gs.gs_best <- Some candidate;
      if cost_lt candidate.p_cost gs.gs_bound then gs.gs_bound <- candidate.p_cost
    end

  (* Conclude a goal: record the winner or the failure (with the bound
     it ran under — "failures that can save future optimization effort
     ... with the same or even lower cost limits") and deliver the
     answer to whoever scheduled the goal. *)
  let finalize_goal run gs =
    let t = run.rt in
    let g = Memo.find_root t.memo gs.gs_group in
    Memo.unmark_in_progress t.memo g gs.gs_key_id;
    (match gs.gs_best with
     | Some p -> record_winner t g gs.gs_key_id (Some p) gs.gs_limit
     | None ->
       t.stats.failures <- t.stats.failures + 1;
       record_winner t g gs.gs_key_id None gs.gs_limit);
    goal_concluded run gs (match gs.gs_best with Some _ -> "won" | None -> "failed");
    gs.gs_slot.answer <- gs.gs_best

  (* Schedule the child goal of a pursued move: push the waiter, then
     the child's [Optimize_group] on top so it runs first. *)
  let schedule_child run ~waiter ~group ~required ~excluded ~limit slot =
    let child = new_goal run.rt ~group ~required ~excluded ~limit slot in
    push run waiter;
    push run (T_optimize_group child)

  (* The cost floor of a move: the sum of its subgoals' lower bounds.
     Secondary sort key after promise — of equally promising moves, the
     one over the cheapest-bounded subtrees is pursued first, so the
     branch-and-bound bound tightens sooner. Computed in every
     configuration (including [guided = false] and [pruning = false]):
     the move order decides which of two equal-cost plans is found
     first, and the ablation arms must agree on it for their winners to
     be bit-identical. *)
  let move_floor t gs = function
    | Impl { input_groups; input_reqs; _ } ->
      List.fold_left2
        (fun acc gi ri -> M.cost_add acc (Memo.lower_bound t.memo gi ri))
        M.cost_zero input_groups input_reqs
    | Enforce { relaxed; _ } -> Memo.lower_bound t.memo gs.gs_group relaxed

  (* Pursue the goal's next pending move, or finalize. Each move runs to
     completion before the next starts, so the bound tightened by one
     move's plan prunes the following moves — exactly the sequential
     move order of the recursive engine. *)
  let rec next_move run gs =
    let t = run.rt in
    match gs.gs_moves with
    | [] -> finalize_goal run gs
    | mv :: rest ->
      gs.gs_moves <- rest;
      (match mv with
       | Impl { alg; input_groups; input_reqs; promise = _; rule; ridx } ->
         let input_props = List.map (lookup t) input_groups in
         let output_props = lookup t gs.gs_group in
         let delivered = M.deliver alg input_reqs in
         if excluded_by ~excluded:gs.gs_excluded ~delivered then next_move run gs
         else if not (M.pp_covers ~provided:delivered ~required:gs.gs_required) then
           next_move run gs
         else begin
           t.stats.plans_costed <- t.stats.plans_costed + 1;
           let local =
             M.cost_of alg ~inputs:input_props ~input_props:input_reqs
               ~output:output_props
           in
           let pending =
             List.map2
               (fun gi ri -> (gi, ri, Memo.lower_bound t.memo gi ri))
               input_groups input_reqs
           in
           (* Guided pruning: project the candidate's cheapest possible
              total — local cost plus every input's lower bound, folded
              in pursuit order so the float accumulation mirrors the
              candidate's own and can never exceed it. A projection
              over the bound abandons the move exactly where Figure 2
              would reject the finished candidate. *)
           let doomed =
             t.config.pruning && t.config.guided
             &&
             let projected =
               List.fold_left (fun acc (_, _, lb) -> M.cost_add acc lb) local pending
             in
             not (cost_le projected gs.gs_bound)
           in
           if doomed then begin
             t.stats.goals_pruned_lb <- t.stats.goals_pruned_lb + 1;
             move_lost run gs ~ridx ~alg ~cost:None ~reason:Memo.Alt_pruned_lb ~spent:0;
             next_move run gs
           end
           else
             push run
               (T_optimize_inputs
                  {
                    im_goal = gs;
                    im_alg = alg;
                    im_rule = rule;
                    im_ridx = ridx;
                    im_start = run.r_tasks;
                    im_delivered = delivered;
                    im_acc_cost = local;
                    im_done = [];
                    im_pending = pending;
                    im_inflight = None;
                  })
         end
       | Enforce { alg; relaxed; excluded = enf_excluded; promise = _ } ->
         let gprops = lookup t gs.gs_group in
         let delivered = M.deliver alg [ relaxed ] in
         if excluded_by ~excluded:gs.gs_excluded ~delivered then next_move run gs
         else if not (M.pp_covers ~provided:delivered ~required:gs.gs_required) then
           next_move run gs
         else begin
           t.stats.enforcer_moves <- t.stats.enforcer_moves + 1;
           t.stats.plans_costed <- t.stats.plans_costed + 1;
           (* "the Volcano optimizer generator's search algorithm
              immediately ... subtracts the cost of the enforcer ...
              from the bound used for branch-and-bound pruning" (§6). *)
           let local =
             M.cost_of alg ~inputs:[ gprops ] ~input_props:[ relaxed ] ~output:gprops
           in
           let sub_limit = M.cost_sub gs.gs_bound local in
           if t.config.pruning && M.cost_compare sub_limit M.cost_zero <= 0 then begin
             t.stats.pruned <- t.stats.pruned + 1;
             move_lost run gs ~ridx:enforcer_ridx ~alg ~cost:(Some local)
               ~reason:Memo.Alt_over_bound ~spent:0;
             next_move run gs
           end
           else if
             (* Guided pruning: the enforcer's input is this same class
                under the relaxed requirement; if its lower bound
                already exceeds the budget left after the enforcer's
                own cost, the subgoal can only fail. *)
             t.config.pruning && t.config.guided
             && cost_lt sub_limit (Memo.lower_bound t.memo gs.gs_group relaxed)
           then begin
             t.stats.goals_pruned_lb <- t.stats.goals_pruned_lb + 1;
             move_lost run gs ~ridx:enforcer_ridx ~alg ~cost:None
               ~reason:Memo.Alt_pruned_lb ~spent:0;
             next_move run gs
           end
           else begin
             let slot = { answer = None } in
             schedule_child run
               ~waiter:
                 (T_apply_enforcer
                    {
                      en_goal = gs;
                      en_alg = alg;
                      en_start = run.r_tasks;
                      en_delivered = delivered;
                      en_relaxed = relaxed;
                      en_excluded = enf_excluded;
                      en_local = local;
                      en_slot = slot;
                    })
               ~group:gs.gs_group ~required:relaxed ~excluded:(Some enf_excluded)
               ~limit:sub_limit slot
           end
         end)

  (* FindBestPlan's winner-table consultation (Figure 2: "if the cost in
     the look-up table < Limit return Plan"), verbatim from the
     recursive engine: a recorded plan answers iff it fits the present
     limit; a recorded failure answers iff its bound was at least as
     generous; an in-progress goal (inverse rule pairs, enforcer cycles)
     answers with failure. *)
  let optimize_group_init run gs =
    let t = run.rt in
    let g = Memo.find_root t.memo gs.gs_group in
    let kid = gs.gs_key_id in
    let start_optimization () =
      t.stats.goal_misses <- t.stats.goal_misses + 1;
      (* Guided pruning: when the group's cost lower bound already
         exceeds the limit, no plan can be accepted — every candidate
         would fail Figure 2's limit test. Record the failure at the
         limit, exactly as the fruitless full optimization would have,
         and answer immediately. *)
      if
        t.config.pruning && t.config.guided
        && cost_lt gs.gs_limit (Memo.lower_bound t.memo g gs.gs_required)
      then begin
        t.stats.goals_pruned_lb <- t.stats.goals_pruned_lb + 1;
        t.stats.failures <- t.stats.failures + 1;
        group_pruned run g;
        record_winner t g kid None gs.gs_limit;
        goal_concluded run gs "pruned-lb";
        gs.gs_slot.answer <- None
      end
      else begin
        t.stats.goals <- t.stats.goals + 1;
        Memo.mark_in_progress t.memo g kid;
        gs.gs_phase <- G_collect;
        push run (T_optimize_group gs);
        push run (T_explore_group g)
      end
    in
    match Memo.winner_id t.memo g kid with
    | Some { w_plan = Some p; _ } ->
      t.stats.goal_hits <- t.stats.goal_hits + 1;
      goal_concluded run gs "hit";
      gs.gs_slot.answer <-
        (if (not t.config.pruning) || cost_le p.p_cost gs.gs_limit then Some p else None)
    | Some { w_plan = None; w_bound } ->
      if cost_le gs.gs_limit w_bound then begin
        t.stats.goal_hits <- t.stats.goal_hits + 1;
        goal_concluded run gs "hit";
        gs.gs_slot.answer <- None
      end
      else begin
        (* Recorded failure, but under a stricter bound than ours:
           re-optimize ("the same expression and physical property
           vector may be optimized multiple times, with increasingly
           generous cost limits"). *)
        start_optimization ()
      end
    | None ->
      if Memo.in_progress t.memo g kid then begin
        goal_concluded run gs "cycle";
        gs.gs_slot.answer <- None
      end
      else start_optimization ()

  (* The class is closed; fan move generation out, one task per
     multi-expression, then re-enter in [G_pursue] to assemble. *)
  let optimize_group_collect run gs =
    let t = run.rt in
    let g = Memo.find_root t.memo gs.gs_group in
    gs.gs_phase <- G_pursue;
    push run (T_optimize_group gs);
    (* Push in reverse so multi-expressions are processed in memo
       order, preserving the recursive engine's move enumeration. *)
    List.iter
      (fun m -> push run (T_optimize_mexpr (gs, m)))
      (List.rev (Memo.mexprs t.memo g))

  (* Assemble the final move list from the per-rule collection buckets:
     implementation moves flattened rule-major (the recursive engine's
     enumeration order), enforcers appended, stably sorted by the
     model's rule promise (§4.2) with the move's cost floor as
     tie-break, optionally truncated to the k most promising. *)
  let assemble_moves t gs =
    let enf = enforcer_moves ~props:(lookup t gs.gs_group) ~required:gs.gs_required in
    (* Each bucket holds its moves newest first: reversing it onto the
       moves of the later rules restores memo order, rule-major. *)
    let moves = Array.fold_right List.rev_append gs.gs_impl enf in
    let ordered =
      List.map (fun mv -> (mv, move_floor t gs mv)) moves
      |> List.stable_sort (fun (a, fa) (b, fb) ->
             let c = compare (promise_of b) (promise_of a) in
             if c <> 0 then c else M.cost_compare fa fb)
      |> List.map fst
    in
    match t.config.max_moves with
    | None -> ordered
    | Some k -> List.filteri (fun i _ -> i < k) ordered

  let optimize_group_pursue run gs =
    gs.gs_moves <- assemble_moves run.rt gs;
    next_move run gs

  let optimize_mexpr run gs (m : Memo.mexpr) =
    let t = run.rt in
    if m.dead then ()
    else begin
      (* Exploration prerequisites: groups that implementation patterns
         descend into must be closed before bindings are enumerated. *)
      let missing =
        List.concat_map
          (fun (_, (rule : _ Rule.implement)) -> missing_for_mexpr t rule.i_pattern m)
          implementation_index
        |> List.sort_uniq compare
      in
      if missing <> [] then begin
        push run (T_optimize_mexpr (gs, m));
        List.iter (fun g -> push run (T_explore_group g)) missing
      end
      else
        List.iter
          (fun (i, rule) ->
            let moves = impl_moves_at t ~ridx:i rule m ~required:gs.gs_required in
            gs.gs_impl.(i) <- List.rev_append moves gs.gs_impl.(i))
          implementation_index
    end

  let explore_group run g =
    let t = run.rt in
    let g = Memo.find_root t.memo g in
    if Memo.is_explored t.memo g || Memo.is_exploring t.memo g then ()
    else begin
      Memo.set_exploring t.memo g true;
      push run (T_explore_round g)
    end

  (* One sweep of the exploration fixpoint: schedule a rule application
     for every (multi-expression, rule) pair not yet fired, with a
     re-check underneath. New multi-expressions appended by those
     applications carry empty applied-bitmasks and are caught by the
     next sweep; the bitmask keeps the total work linear in
     (mexpr, rule) pairs, as in the recursive engine. *)
  let explore_round run g =
    let t = run.rt in
    let g = Memo.find_root t.memo g in
    let pending =
      List.concat_map
        (fun (m : Memo.mexpr) ->
          List.filter_map
            (fun (i, _) -> if m.applied land (1 lsl i) = 0 then Some (m, i) else None)
            rule_index)
        (Memo.mexprs t.memo g)
    in
    if pending = [] then begin
      Memo.set_exploring t.memo g false;
      Memo.set_explored t.memo g true
    end
    else begin
      push run (T_explore_round g);
      List.iter
        (fun (m, i) -> push run (T_apply_transform (g, m, i)))
        (List.rev pending)
    end

  let apply_transform run target (m : Memo.mexpr) i =
    let t = run.rt in
    if m.dead then ()
    else begin
      let rule = List.assoc i rule_index in
      let bit = 1 lsl i in
      if m.applied land bit <> 0 then ()
      else begin
        let missing = missing_for_mexpr t rule.Rule.t_pattern m in
        if missing <> [] then begin
          push run (T_apply_transform (target, m, i));
          List.iter (fun g -> push run (T_explore_group g)) missing
        end
        else begin
          m.applied <- m.applied lor bit;
          let mexprs_before = t.stats.mexprs_created in
          let bindings = bindings_at t rule.Rule.t_pattern m in
          List.iter
            (fun b ->
              let results = rule.Rule.t_apply ~lookup:(lookup t) b in
              if results <> [] then begin
                t.stats.rule_firings <- t.stats.rule_firings + 1;
                List.iter
                  (fun b' ->
                    let target = Memo.find_root t.memo target in
                    ignore (insert_binding t ~target b' : Memo.group))
                  results
              end)
            bindings;
          mexprs_generated t i (t.stats.mexprs_created - mexprs_before)
        end
      end
    end

  (* One step of the left-to-right input optimization of an algorithm
     move. Absorbs the answer of the input goal in flight (if any), then
     either schedules the next input under the tightened limit, prunes,
     or completes the candidate. *)
  let optimize_inputs run (st : impl_state) =
    let t = run.rt in
    let gs = st.im_goal in
    let failed =
      match st.im_inflight with
      | None -> false
      | Some (gi, ri, slot) ->
        st.im_inflight <- None;
        (match slot.answer with
         | None -> true
         | Some sub ->
           st.im_done <- (gi, ri, None) :: st.im_done;
           st.im_acc_cost <- M.cost_add st.im_acc_cost sub.Memo.p_cost;
           false)
    in
    if failed then begin
      move_lost run gs ~ridx:st.im_ridx ~alg:st.im_alg ~cost:None
        ~reason:Memo.Alt_input_failed ~spent:(run.r_tasks - st.im_start);
      next_move run gs
    end
    else
      match st.im_pending with
      | [] ->
        consider run gs
          {
            Memo.p_alg = st.im_alg;
            p_rule = st.im_rule;
            p_inputs = List.rev st.im_done;
            p_props = st.im_delivered;
            p_cost = st.im_acc_cost;
          };
        next_move run gs
      | (gi, ri, lb) :: rest ->
        let over_acc = t.config.pruning && not (cost_le st.im_acc_cost gs.gs_bound) in
        let over_bound =
          over_acc
          || t.config.pruning && t.config.guided
             && begin
                  (* Project the cheapest completion: accumulated cost
                     plus the pending inputs' lower bounds, folded in
                     pursuit order (the candidate's own accumulation
                     order, so the projection can never float above the
                     finished cost). *)
                  let projected =
                    List.fold_left
                      (fun acc (_, _, lb) -> M.cost_add acc lb)
                      (M.cost_add st.im_acc_cost lb) rest
                  in
                  not (cost_le projected gs.gs_bound)
                end
        in
        if over_bound then begin
          t.stats.pruned <- t.stats.pruned + 1;
          move_lost run gs ~ridx:st.im_ridx ~alg:st.im_alg
            ~cost:(if over_acc then Some st.im_acc_cost else None)
            ~reason:(if over_acc then Memo.Alt_over_bound else Memo.Alt_pruned_lb)
            ~spent:(run.r_tasks - st.im_start);
          next_move run gs
        end
        else begin
          (* Figure 2's input limit is [bound - accumulated]; guided
             pruning further subtracts the lower bounds of the inputs
             still waiting behind this one — their cost is committed,
             just not yet spent. As siblings resolve, [rest] shrinks
             and the subtraction is retaken against their true costs,
             so limits tighten as the move progresses. *)
          let f2_limit = M.cost_sub gs.gs_bound st.im_acc_cost in
          let sub_limit =
            if t.config.pruning && t.config.guided && rest <> [] then begin
              let tightened =
                List.fold_left (fun acc (_, _, lb) -> M.cost_sub acc lb) f2_limit rest
              in
              if cost_lt tightened f2_limit then
                t.stats.input_limits_tightened <- t.stats.input_limits_tightened + 1;
              tightened
            end
            else f2_limit
          in
          let slot = { answer = None } in
          st.im_pending <- rest;
          st.im_inflight <- Some (gi, ri, slot);
          schedule_child run ~waiter:(T_optimize_inputs st) ~group:gi ~required:ri
            ~excluded:None ~limit:sub_limit slot
        end

  let apply_enforcer run (st : enf_state) =
    let gs = st.en_goal in
    (match st.en_slot.answer with
     | None ->
       move_lost run gs ~ridx:enforcer_ridx ~alg:st.en_alg ~cost:None
         ~reason:Memo.Alt_input_failed ~spent:(run.r_tasks - st.en_start)
     | Some sub ->
       consider run gs
         {
           Memo.p_alg = st.en_alg;
           p_rule = "enforcer";
           p_inputs = [ (gs.gs_group, st.en_relaxed, Some st.en_excluded) ];
           p_props = st.en_delivered;
           p_cost = M.cost_add st.en_local sub.Memo.p_cost;
         });
    next_move run gs

  (* ------------------------------------------------------------------ *)
  (* The stepper loop                                                    *)
  (* ------------------------------------------------------------------ *)

  let exec_task run task =
    match task with
    | T_optimize_group gs -> begin
      match gs.gs_phase with
      | G_init -> optimize_group_init run gs
      | G_collect -> optimize_group_collect run gs
      | G_pursue -> optimize_group_pursue run gs
    end
    | T_explore_group g -> explore_group run g
    | T_explore_round g -> explore_round run g
    | T_optimize_mexpr (gs, m) -> optimize_mexpr run gs m
    | T_apply_transform (g, m, i) -> apply_transform run g m i
    | T_optimize_inputs st -> optimize_inputs run st
    | T_apply_enforcer st -> apply_enforcer run st

  (* Execute one task. Returns [false] when the stack is empty. *)
  let step run =
    match run.r_stack with
    | [] -> false
    | task :: rest ->
      run.r_stack <- rest;
      run.r_depth <- run.r_depth - 1;
      run.r_tasks <- run.r_tasks + 1;
      Search_stats.count_task run.rt.stats (task_kind task);
      task_begin run task;
      (match exec_task run task with
       | () -> task_end run task
       | exception e ->
         task_end ~outcome:"abandoned" run task;
         raise e);
      true

  (** Begin a resumable optimization: capture the query in the memo and
      set up the root goal. No search work happens until {!resume}. *)
  let start ?(limit = M.cost_infinite) t (query : M.op Tree.t) ~required : run =
    let root = insert_query t query in
    let slot = { answer = None } in
    let goal = new_goal t ~group:root ~required ~excluded:None ~limit slot in
    let run =
      {
        rt = t;
        r_root = root;
        r_goal = goal;
        r_stack = [];
        r_depth = 0;
        r_tasks = 0;
        r_incumbents = [];
        r_millis = 0.;
        r_status = None;
        r_open_goals = [];
      }
    in
    push run (T_optimize_group goal);
    run

  (** Drive the stepper until the search completes or the budget runs
      out. Budgets are cumulative over the run: resuming a paused run
      with a larger budget continues exactly where it stopped, with all
      memoized work intact. Resuming a completed run is a no-op. *)
  let resume ?budget (run : run) : status =
    let budget = Option.value budget ~default:run.rt.config.budget in
    match run.r_status with
    | Some Complete -> Complete
    | _ ->
      let t0 = Unix.gettimeofday () in
      let out_of_budget () =
        match budget.max_tasks with
        | Some n when run.r_tasks >= n -> Some Task_budget
        | _ -> begin
          match budget.max_millis with
          | Some ms
            when run.r_millis +. ((Unix.gettimeofday () -. t0) *. 1000.) >= ms ->
            Some Time_budget
          | _ -> None
        end
      in
      let rec loop () =
        if run.r_stack = [] then Complete
        else
          match out_of_budget () with
          | Some reason -> Paused reason
          | None ->
            ignore (step run : bool);
            loop ()
      in
      let status = watched run.rt loop in
      run.r_millis <- run.r_millis +. ((Unix.gettimeofday () -. t0) *. 1000.);
      run.r_status <- Some status;
      (match status with Paused reason -> run_paused run.rt reason | Complete -> ());
      status

  (* ------------------------------------------------------------------ *)
  (* Plan extraction                                                     *)
  (* ------------------------------------------------------------------ *)

  (* Materialize a plan tree from a winner-table plan node: children are
     re-read from the winner tables by their optimization goals. *)
  let rec extract_node t (p : Memo.plan) : plan_tree =
    let children =
      List.map
        (fun (gi, ri, ei) ->
          let gi = Memo.find_root t.memo gi in
          match Memo.winner t.memo gi (ri, ei) with
          | None | Some { w_plan = None; _ } ->
            invalid_arg "Search.extract: no winning plan recorded for goal"
          | Some { w_plan = Some sub; _ } -> extract_node t sub)
        p.p_inputs
    in
    (* Consistency check (§2.2): "generated optimizers verify that the
       physical properties of a chosen plan really do satisfy the
       physical property vector given as part of the optimization
       goal." *)
    List.iter2
      (fun (_, ri, _) (c : plan_tree) ->
        assert (M.pp_covers ~provided:c.props ~required:ri))
      p.p_inputs children;
    { alg = p.p_alg; children; props = p.p_props; cost = p.p_cost }

  let extract t g ~required ~excluded : plan_tree =
    let g = Memo.find_root t.memo g in
    match Memo.winner t.memo g (required, excluded) with
    | None | Some { w_plan = None; _ } ->
      invalid_arg "Search.extract: no winning plan recorded for goal"
    | Some { w_plan = Some p; _ } ->
      assert (M.pp_covers ~provided:p.p_props ~required);
      extract_node t p

  (* ------------------------------------------------------------------ *)
  (* EXPLAIN: winner provenance from the memo                            *)
  (* ------------------------------------------------------------------ *)

  (** One node of the winning physical expression, re-read from the
      winner tables: the chosen algorithm, the implementation rule that
      produced it, its total and local costs, and the alternatives the
      goal rejected. *)
  type explain_node = {
    x_group : Memo.group;
    x_alg : M.alg;
    x_rule : string;
    x_required : M.phys_props;
    x_provided : M.phys_props;
    x_cost : M.cost;  (** total cost of this subtree *)
    x_local : M.cost;  (** this node's own cost (total minus inputs) *)
    x_inputs : explain_node list;
    x_alts : Memo.alt list;
        (** losing alternatives of this goal, with the reasons the search
            let them go; recorded only when [config.explain] is on *)
  }

  let rec explain_goal t g ~required ~excluded : explain_node option =
    let g = Memo.find_root t.memo g in
    let id = Memo.intern t.memo (required, excluded) in
    match Memo.winner_id t.memo g id with
    | None | Some { Memo.w_plan = None; _ } -> None
    | Some { Memo.w_plan = Some p; _ } -> Some (explain_plan t g id ~required p)

  (* The node for plan [p] chosen for goal [id] of root class [g]; its
     inputs are re-read from the winner tables. *)
  and explain_plan t g id ~required (p : Memo.plan) : explain_node =
    let inputs =
      List.filter_map
        (fun (gi, ri, ei) -> explain_goal t gi ~required:ri ~excluded:ei)
        p.Memo.p_inputs
    in
    let local =
      List.fold_left (fun acc (c : explain_node) -> M.cost_sub acc c.x_cost)
        p.Memo.p_cost inputs
    in
    (* The goal's recorded alternatives minus one entry for the winner
       itself: a completed candidate with the winner's algorithm, rule,
       and cost. Everything left lost. *)
    let is_winner (a : Memo.alt) =
      a.Memo.a_reason = Memo.Alt_completed
      && M.alg_name a.Memo.a_alg = M.alg_name p.Memo.p_alg
      && a.Memo.a_rule = p.Memo.p_rule
      && (match a.Memo.a_cost with
          | Some c -> M.cost_compare c p.Memo.p_cost = 0
          | None -> false)
    in
    let rec drop_winner = function
      | [] -> []
      | a :: rest -> if is_winner a then rest else a :: drop_winner rest
    in
    let alts = drop_winner (Memo.alts t.memo g id) in
    {
      x_group = g;
      x_alg = p.Memo.p_alg;
      x_rule = p.Memo.p_rule;
      x_required = required;
      x_provided = p.Memo.p_props;
      x_cost = p.Memo.p_cost;
      x_local = local;
      x_inputs = inputs;
      x_alts = alts;
    }

  let reason_label ~winner_cost (a : Memo.alt) =
    match a.a_reason with
    | Memo.Alt_completed -> (
      match a.a_cost with
      | Some c when M.cost_compare c winner_cost = 0 ->
        Printf.sprintf "completed at cost %s, tied with winner (pursued later)"
          (M.cost_to_string c)
      | Some c ->
        Printf.sprintf "completed, cost %s above winner %s" (M.cost_to_string c)
          (M.cost_to_string winner_cost)
      | None -> "completed, costlier than winner")
    | Memo.Alt_over_bound -> (
      match a.a_cost with
      | Some c ->
        Printf.sprintf "abandoned at partial cost %s: bound exceeded"
          (M.cost_to_string c)
      | None -> "abandoned: bound exceeded")
    | Memo.Alt_pruned_lb -> "pruned: cost lower bound above the limit"
    | Memo.Alt_input_failed -> "input goal failed within its limit (failure table)"

  (** Render an {!explain_run} tree: one line per winning node (algorithm,
      delivered properties, total and local cost, producing rule, memo
      group), each followed by its goal's losing alternatives. *)
  let pp_explain ppf (root : explain_node) =
    let rec go depth (n : explain_node) =
      let pad = String.make depth ' ' in
      Format.fprintf ppf "%s%s  [%s; cost %s; local %s]  rule=%s group=%d@\n" pad
        (M.alg_name n.x_alg) (M.pp_to_string n.x_provided)
        (M.cost_to_string n.x_cost) (M.cost_to_string n.x_local) n.x_rule n.x_group;
      List.iter
        (fun (a : Memo.alt) ->
          Format.fprintf ppf "%s  ~ %s via %s: %s@\n" pad (M.alg_name a.a_alg) a.a_rule
            (reason_label ~winner_cost:n.x_cost a))
        n.x_alts;
      List.iter (fun c -> go (depth + 2) c) n.x_inputs
    in
    go 0 root

  (** The run's incumbent history, oldest first: [(tasks, cost)] at
      every strict improvement of the root goal's best-so-far plan.
      [tasks] counts this run's executed tasks when the incumbent was
      recorded — the x-axis of an anytime cost-vs-effort curve. *)
  let incumbents (run : run) : (int * M.cost) list = List.rev run.r_incumbents

  (* The root goal's plan node behind {!best_so_far}. *)
  let best_plan (run : run) : Memo.plan option =
    match run.r_status with
    | Some Complete -> run.r_goal.gs_slot.answer
    | _ -> (
      match run.r_goal.gs_slot.answer with
      | Some p -> Some p
      | None -> run.r_goal.gs_best)

  (** The best complete plan the run has found so far — the anytime
      answer. For a finished run this is the winner; for a paused run it
      is the root goal's best candidate, whose input goals all finished
      (and were memoized) before the candidate was recorded, so it
      extracts to a valid, executable plan. *)
  let best_so_far (run : run) : plan_tree option =
    Option.map (fun p -> extract_node run.rt p) (best_plan run)

  (** The plan {!best_so_far} extracts, with per-node provenance: the
      root goal's winner once the run completes, its best candidate
      while the run is paused. A candidate's inputs are finished goals
      with winners, and the root's alternatives are those recorded so
      far (all of them only with [config.explain] on). [None] when the
      run has no plan. *)
  let explain_run (run : run) : explain_node option =
    let gs = run.r_goal in
    Option.map
      (fun p ->
        explain_plan run.rt (Memo.find_root run.rt.memo gs.gs_group) gs.gs_key_id
          ~required:gs.gs_required p)
      (best_plan run)

  type outcome = {
    plan : plan_tree option;
        (** [None]: no plan within the cost limit (or none yet within
            the budget) *)
    status : status;  (** [Paused _]: the budget ran out; [plan] is anytime *)
    tasks_run : int;  (** tasks this optimization executed *)
    root_group : Memo.group;
    search_stats : Search_stats.t;
    memo_groups : int;
    memo_mexprs : int;
  }

  let outcome_of (run : run) : outcome =
    let status = match run.r_status with Some s -> s | None -> Paused Task_budget in
    {
      plan = best_so_far run;
      status;
      tasks_run = run.r_tasks;
      root_group = run.r_root;
      search_stats = run.rt.stats;
      memo_groups = Memo.n_groups run.rt.memo;
      memo_mexprs = Memo.n_mexprs run.rt.memo;
    }

  (** Optimize a query: insert it, run the task engine for the required
      properties under the cost limit and the searcher's configured
      budget, and extract the winning (or, under an exhausted budget,
      the best-so-far) plan. A fresh optimizer should be used per query
      (the paper reinitializes partial results for each query) unless
      memo reuse across queries is intended. *)
  let optimize ?(limit = M.cost_infinite) ?budget t (query : M.op Tree.t) ~required :
      outcome =
    let run = start ~limit t query ~required in
    ignore (resume ?budget run : status);
    outcome_of run

  let pp_plan ppf (p : plan_tree) =
    let rec go depth node =
      Format.fprintf ppf "%s%s  [%s; cost %s]" (String.make depth ' ')
        (M.alg_name node.alg) (M.pp_to_string node.props) (M.cost_to_string node.cost);
      List.iter
        (fun c ->
          Format.pp_print_newline ppf ();
          go (depth + 2) c)
        node.children
    in
    go 0 p
end
