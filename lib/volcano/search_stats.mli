(** Machine-independent search-effort counters. Figure 4 compares
    wall-clock seconds on a SparcStation-1; these counters let the
    benchmarks report effort in a hardware-neutral way alongside time,
    per task kind too, with the work-stack high-water mark. They count
    the search alone: multi-query optimization and runtime feedback
    keep and export their own counters. *)

(** The task kinds of the search engine's work stack (see
    {!Search.Make}). Kept here, outside the functor, so stats and
    tracing are shared across all generated optimizers. *)
type task_kind =
  | Optimize_group  (** FindBestPlan for one (group, property, limit) goal *)
  | Explore_group  (** close a group under the transformation rules *)
  | Optimize_mexpr  (** enumerate implementation moves of one multi-expression *)
  | Apply_transform  (** fire one transformation rule on one multi-expression *)
  | Optimize_inputs  (** optimize one input of a pursued algorithm move *)
  | Apply_enforcer  (** pursue one enforcer move *)

val task_kinds : task_kind list
(** All kinds, in display order. *)

val task_kind_name : task_kind -> string

type t = {
  mutable goals : int;  (** goals that ran a real optimization *)
  mutable goal_hits : int;  (** goals answered from the winner table *)
  mutable goal_misses : int;  (** goal lookups that found no usable entry *)
  mutable groups_created : int;
  mutable mexprs_created : int;
  mutable rule_firings : int;  (** transformation-rule applications *)
  mutable plans_costed : int;  (** implementation/enforcer moves pursued *)
  mutable enforcer_moves : int;
  mutable failures : int;  (** goals concluded without a plan within the limit *)
  mutable pruned : int;  (** moves abandoned because the cost limit was exceeded *)
  mutable merges : int;  (** equivalence-class merges from duplicate detection *)
  mutable tasks : int;  (** total tasks executed by the stepper loop *)
  tasks_by_kind : int array;  (** per-kind totals; read via {!tasks_of_kind} *)
  mutable stack_hwm : int;  (** work-stack high-water mark *)
  mutable goals_pruned_lb : int;
      (** goals and moves abandoned because a group cost lower bound
          ({!Signatures.MODEL.cost_lower_bound}) proved the limit
          unreachable: a goal killed at lookup time (its failure is
          recorded at the limit exactly as a fruitless full optimization
          would have recorded it), an implementation move whose local
          cost plus input lower bounds already exceeds the bound, or an
          enforcer move whose relaxed subgoal cannot fit the remaining
          budget *)
  mutable input_limits_tightened : int;
      (** input optimizations whose Figure-2 limit
          ([bound - accumulated cost]) was strictly tightened by
          subtracting the lower bounds of unresolved sibling inputs *)
  mutable memo_fastpath_hits : int;
      (** goal-key intern lookups answered by the memo's hash-consing
          table: the goal's winner tables are then addressed by a
          small integer id instead of rehashing property vectors *)
  mutable promise_evals : int;
      (** always 0: the engine orders moves by the model's static rule
          promise (§4.2), which costs no evaluation. Kept so reports
          that read it keep their schema. *)
  mutable anytime_improvements : int;
      (** root-goal incumbent replacements: a run's root goal already
          had a best-so-far plan and a strictly cheaper one arrived *)
}

val create : unit -> t

val reset : t -> unit

val copy : t -> t
(** Independent snapshot; later mutation of either side does not affect
    the other. *)

val merge : into:t -> t -> unit
(** Accumulate [t]'s counters into [into] (the high-water mark takes
    the max). The plan service folds each cache miss's effort into one
    service-wide view with it. *)

val diff : since:t -> t -> t
(** Counter deltas [t - since] (high-water mark taken from [t]): the
    per-query statistics of one optimization inside a cumulative
    session. *)

val count_task : t -> task_kind -> unit

val tasks_of_kind : t -> task_kind -> int

val note_stack_depth : t -> int -> unit

val pp : Format.formatter -> t -> unit
(** One line of [suffix=value] pairs, named as in {!metric_names}; the
    per-kind task counters are left to {!pp_tasks}. *)

val pp_tasks : Format.formatter -> t -> unit
(** Render the per-kind task counters and the stack high-water mark. *)

val register : Obs.Metrics.registry -> t -> unit
(** Surface every counter (including the per-kind task counters) as a
    gauge in [reg], named ["volcano_search_" ^ field]. Gauges read the
    live record, so registering once before (or after) a run is
    enough. *)

val metric_names : string -> string list
(** [metric_names prefix] — the metric names {!register} would create,
    for shape validators and the documentation glossary. *)
