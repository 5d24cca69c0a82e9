(** The runtime cardinality feedback loop: close the circle between the
    optimizer's estimates and the executor's reality.

    The Volcano generator optimizes against {e estimated} costs; this
    module confronts those estimates with actuals. An instrumented
    execution wraps every plan node's cursor with a pass-through counter
    ({!Executor.Cursor.observed}), records the actual output cardinality
    per node, and diffs it against the estimate the optimizer's property
    derivation attaches to the same node ({!Relmodel.Plan_cost.props}).
    The diff becomes a {!report} — per node: estimated vs observed and
    the q-error between them, plus the base relations responsible.

    Drifted single-table nodes feed {e corrections} back into the
    catalog ({!Catalog.update_stats}): a table scan whose actual count
    contradicts the claimed row count corrects the row count; a
    drifted selection corrects the predicate column's distinct count
    (equality) or value range (inequality) so the estimator reproduces
    the observed selectivity. Every correction bumps the table's
    statistics version, so plan caches stamped with the old version
    ({!Plansrv}) invalidate lazily and re-optimize on their next
    lookup — the feedback loop needs no private channel into the cache.

    A mid-query escape hatch aborts execution as soon as any node's
    observed cardinality exceeds [k x] its estimate: the run re-enters
    the optimizer with the correction proven so far, or — for dynamic
    plans — switches to the {!Dynplan} bucket covering the actual
    parameter ({!run_dynamic}). *)

(** {1 Configuration} *)

type config = {
  drift_threshold : float;
      (** q-error at or above which a node counts as drifted (and, for
          single-table nodes, produces a correction); must be >= 1 *)
  escape_factor : float option;
      (** the escape hatch's [k]: abort mid-query when a node's observed
          cardinality exceeds [k x max(1, estimate)]; [None] disarms the
          hatch. With exact estimates and [k >= 1] the hatch never
          fires. *)
  correct : bool;
      (** install catalog corrections after a completed run ([false]:
          observe and report only) *)
  max_replans : int;
      (** escape-hatch re-optimization budget per {!run} (the final
          attempt always executes to completion) *)
  recorder : Obs.Flight_recorder.t option;
      (** flight recorder to {!Obs.Flight_recorder.trigger} (reason
          ["feedback-escape"]) whenever the escape hatch aborts a run:
          the post-mortem dump captures the engine events leading up to
          the misestimate *)
}

val config :
  ?drift_threshold:float ->
  ?escape_factor:float ->
  ?correct:bool ->
  ?max_replans:int ->
  ?recorder:Obs.Flight_recorder.t ->
  unit ->
  config
(** Defaults: threshold 2, hatch disarmed, corrections on, 1 replan.
    @raise Invalid_argument if [drift_threshold < 1.] or
    [escape_factor < 1.]. *)

(** {1 Drift reports} *)

(** One plan node's estimate confronted with its actual. *)
type node_obs = {
  path : int list;
      (** position in the plan tree: [[]] is the root, [path @ [i]] the
          i-th child — the same paths
          {!Executor.Engine.compile_instrumented} hands its hook *)
  alg : string;  (** physical algorithm name ({!Relalg.Physical.alg_name}) *)
  estimated : float;  (** cardinality the optimizer derived for the node *)
  observed : int;  (** tuples the node actually delivered *)
  ratio : float;
      (** q-error [max(obs', est') / min(obs', est')] with both sides
          clamped below at 1; [1.0] means the estimate was exact *)
  relations : string list;  (** base relations feeding the node *)
  complete : bool;
      (** the node delivered its end of stream. When [false] — the
          consumer stopped pulling early, e.g. a merge join whose other
          input ran out — [observed] is only a lower bound, so the node
          counts as drifted only if that bound already exceeds the
          estimate. *)
}

val q_error : estimated:float -> observed:int -> float
(** The {!node_obs.ratio} metric by itself. *)

(** One statistics correction installed in the catalog. *)
type correction = {
  table : string;
  detail : string;  (** human-readable rule applied (row count, distinct, range) *)
  stats_version : int;
      (** the table's statistics version {e after} the correction — the
          stamp cached plans must now carry to stay fresh *)
}

(** The feedback loop's own counters, kept apart from the search's
    {!Volcano.Search_stats}. *)
type counters = {
  mutable fb_runs : int;
      (** instrumented executions completed: plans run with per-node
          cardinality observers *)
  mutable fb_nodes_observed : int;
      (** plan nodes whose actual output cardinality was recorded *)
  mutable fb_drift_nodes : int;
      (** observed nodes whose q-error (max(obs,est)/min(obs,est), both
          clamped below at 1) reached the drift threshold *)
  mutable fb_corrections : int;
      (** per-table statistics corrections installed through
          [Catalog.update_stats], each bumping that table's stats
          version (and thereby invalidating stale cached plans) *)
  mutable fb_escapes : int;
      (** mid-query escape-hatch aborts: a node's observed cardinality
          blew past its estimate by the configured k factor *)
  mutable fb_replans : int;  (** re-optimizations after an escape-hatch abort *)
}

val counters : unit -> counters
(** All zero. *)

val add_counters : into:counters -> counters -> unit

val pp_counters : Format.formatter -> counters -> unit
(** One line of [name=value] pairs, named as in {!metric_names} [""]. *)

val register : Obs.Metrics.registry -> counters -> unit
(** Surface the counters as gauges named
    ["volcano_search_feedback_" ^ counter], read live. *)

val metric_names : string -> string list
(** [metric_names prefix] — the names {!register} creates; with prefix
    [""], the keys of {!report_to_json}'s ["stats"] object. *)

(** The per-query drift report. *)
type report = {
  nodes : node_obs list;  (** every observed node, preorder *)
  drifted : node_obs list;  (** the subset with [ratio >= threshold] *)
  threshold : float;  (** the configured drift threshold *)
  corrections : correction list;  (** catalog corrections installed *)
  escaped : bool;  (** the escape hatch fired at least once *)
  replans : int;  (** optimizer re-entries triggered *)
  counters : counters;  (** the run's feedback counters *)
  stats : Volcano.Search_stats.t;
      (** the search effort of any feedback-triggered re-optimization *)
}

val report_to_json : report -> Obs.Json.t
(** Export shape (validated by [validate_obs drift]): [nodes] array
    with per-node path/alg/estimated/observed/ratio/relations, the
    drifted count, corrections with their new stats versions, and every
    counter under ["stats"], keyed as {!metric_names} [""] names it. *)

(** {1 Instrumented execution} *)

(** How an instrumented execution ended. *)
type run_result =
  | Complete of
      Relalg.Tuple.t array * Relalg.Schema.t * Executor.Io_stats.t * node_obs list
      (** ran to exhaustion; the tuple array is bit-identical to
          {!Executor.run} on the same plan *)
  | Aborted of {
      at : int list;  (** path of the node that blew its budget *)
      nodes : node_obs list;
          (** counts accumulated up to the abort — lower bounds, except
              at [at] where the count already proves the estimate wrong
              by the escape factor *)
      io : Executor.Io_stats.t;
    }  (** the escape hatch fired *)

val observed_run :
  ?escape_factor:float ->
  ?estimate_plan:Relalg.Physical.plan ->
  Catalog.t ->
  Relalg.Physical.plan ->
  run_result
(** Execute [plan] with a per-node cardinality observer. Estimates are
    derived from [estimate_plan] when given (a structurally congruent
    plan carrying the constants the optimizer actually believed — used
    by {!run_dynamic} to judge a parameter-instantiated plan against
    its witness), from [plan] itself otherwise. *)

val drift_nodes : threshold:float -> node_obs list -> node_obs list
(** The nodes whose q-error reaches [threshold] and whose drift is
    proven: either the node ran to completion, or its partial count
    already exceeds the estimate. *)

val apply_corrections :
  ?only:int list ->
  Catalog.t ->
  threshold:float ->
  Relalg.Physical.plan ->
  node_obs list ->
  correction list
(** Derive and install catalog corrections from the drifted single-table
    nodes of an observed run (see the correction rule in DESIGN.md §15).
    [only] restricts correction to the node at that path (the escape
    hatch corrects just the node that blew its budget, since every other
    count is still partial). Each affected table receives one
    [Catalog.update_stats], bumping its statistics version once. *)

val measured_work :
  Relalg.Physical.plan -> node_obs list -> io:Executor.Io_stats.t -> float
(** Machine-neutral measured cost of an observed run: the tuple touches
    each operator actually performed — from the observed cardinalities
    and the executor's algorithm (nested-loop joins pay outer x inner
    predicate evaluations, hash joins build + probe + matches, sorts
    n log n comparisons, exchanges nothing) — plus the pages read and
    written. No estimate enters; the feedback benchmarks judge
    plan-quality recovery by this. *)

(** {1 The feedback loop end to end} *)

(** A feedback-instrumented query execution. *)
type outcome = {
  tuples : Relalg.Tuple.t array;
  schema : Relalg.Schema.t;
  io : Executor.Io_stats.t;
  plan : Relmodel.Optimizer.plan_node;
      (** the plan that produced [tuples] — the re-optimized one if the
          escape hatch replanned *)
  report : report;
}

val run_plan :
  ?config:config ->
  Relmodel.Optimizer.request ->
  Relalg.Logical.expr ->
  required:Relalg.Phys_prop.t ->
  Relmodel.Optimizer.plan_node ->
  outcome
(** Execute an already-optimized plan under the feedback loop: observe,
    escape/replan within [config.max_replans] (re-entering
    {!Relmodel.Optimizer.optimize} against the corrected catalog), and
    install post-run corrections when [config.correct]. Used by
    [volcano-cli serve --feedback] to confront cached plans with
    reality. *)

val run :
  ?config:config ->
  Relmodel.Optimizer.request ->
  Relalg.Logical.expr ->
  required:Relalg.Phys_prop.t ->
  outcome
(** Optimize then {!run_plan} — the [volcano-cli run --feedback] path.
    @raise Invalid_argument when the optimizer finds no plan. *)

val run_dynamic :
  ?config:config ->
  Relmodel.Optimizer.request ->
  Dynplan.t ->
  param:Relalg.Value.t ->
  outcome
(** Execute a dynamic plan's static choice under the feedback loop,
    judged against the estimates of its optimization-time witness. When
    the escape hatch fires, abort into the {!Dynplan} bucket covering
    the actual parameter (choose-plan as a run-time fallback, no
    re-optimization) and execute that to completion. *)
