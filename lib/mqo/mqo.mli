(** Multi-query optimization over the shared memo.

    A batch of queries is loaded into {e one} optimizer session (one
    memo), so structurally-equal subexpressions across queries land in
    the same equivalence classes. Per-subtree fingerprints
    ({!Plansrv.Fingerprint.subtrees}) detect the common subexpressions,
    and the batch search decides, per shared result, whether to
    {e materialize} it once (paying the write cost) and have every
    other consumer {e reuse} it (paying a scan of the stored result),
    or to recompute it per consumer — the choice framed by Roy et al.,
    "Efficient and Extensible Algorithms for Multi Query Optimization".

    Two strategies are implemented on top of the common machinery:

    - {e Volcano-SH}: optimize every query independently (in the shared
      session), then run a cost-based post-pass over the winning plans:
      physical subplans computing the same logical subexpression in two
      or more places are candidates; one occurrence becomes the
      producer (wrapped in [Materialize]), the others are spliced to
      [Scan_materialized] when that strictly lowers the batch cost.
    - {e Volcano-RU}: process queries in arrival order; every earlier
      query's subexpressions are reuse candidates for later ones. A
      later query is re-optimized against a rewritten form that reads
      the materialized candidate, and the cheaper form wins. At the end
      of the batch, each materialization is kept only if the summed
      consumer gains exceed its compute + write cost — otherwise its
      consumers revert to their independent plans.

    Both strategies only ever {e lower} the batch cost relative to
    independent optimization (strict-improvement acceptance); with
    sharing [Off] the batch is bit-identical to independent runs. *)

type strategy =
  | Off  (** optimize each query independently in the shared session *)
  | Volcano_sh  (** post-pass over independently-optimal plans *)
  | Volcano_ru  (** reuse-aware re-optimization in arrival order *)

val strategy_name : strategy -> string
(** ["off"], ["volcano-sh"], ["volcano-ru"]. *)

val strategy_of_string : string -> strategy option
(** Accepts the names above plus the short forms ["sh"] and ["ru"]. *)

(** One shared subexpression detected across the batch. *)
type shared = {
  key : string;  (** canonical per-subtree fingerprint key *)
  mat_name : string;  (** catalog name of the materialized intermediate *)
  relations : string list;  (** base relations under the subexpression *)
  producer : int option;
      (** query whose plan computes and writes the result (Volcano-SH);
          [None] for Volcano-RU, where a standalone materialization job
          computes it (its cost is [compute + write]) *)
  producer_plan : Relmodel.Optimizer.plan_node option;
      (** the standalone producer plan (Volcano-RU) *)
  consumers : int list;  (** query indices reading the materialized result *)
  compute : Relalg.Cost.t;  (** computing the shared result once *)
  write : Relalg.Cost.t;  (** materialize write cost *)
  read : Relalg.Cost.t;  (** one consumer's scan of the stored result *)
  chosen : bool;
      (** whether materializing this result lowered the batch cost (and
          the rewrites were kept) *)
}

type query_result = {
  plan : Relmodel.Optimizer.plan_node option;  (** the final plan for this query *)
  independent_cost : Relalg.Cost.t;
      (** cost of this query optimized independently *)
  final_cost : Relalg.Cost.t;
      (** cost of the plan actually chosen for the batch (equals
          [independent_cost] when no reuse was applied) *)
  reused : string list;  (** materialized intermediates this plan reads *)
}

type report = {
  strategy : strategy;
  results : query_result list;  (** in input order *)
  shared : shared list;
  independent_total : float;
      (** sum of independent plan costs (I/O + CPU seconds) *)
  batch_total : float;
      (** total batch cost: final plan costs plus, for Volcano-RU, the
          compute + write cost of every chosen materialization job.
          Never exceeds [independent_total]; strictly below it whenever
          any materialization was chosen *)
  shared_groups : int;
      (** subexpressions that occurred in two or more queries *)
  materialize_chosen : int;  (** shared results the search materialized *)
  reuse_hits : int;  (** consumer sites rewritten to read a materialized result *)
  stats : Volcano.Search_stats.t;  (** cumulative session search effort *)
}

val optimize_batch :
  ?strategy:strategy ->
  Relmodel.Optimizer.request ->
  (Relalg.Logical.expr * Relalg.Phys_prop.t) list ->
  report
(** Optimize a batch of (query, required properties) pairs in one
    shared session. Chosen materialized intermediates stay registered
    in the request's catalog (the final plans reference them); rejected
    ones are removed again. *)

val serve_batch :
  ?strategy:strategy ->
  Plansrv.t ->
  Plansrv.worker ->
  (Relalg.Logical.expr * Relalg.Phys_prop.t) list ->
  report * Plansrv.response list
(** Like {!optimize_batch}, but the per-query independent results are
    served through the plan service's cache ({!Plansrv.serve_one}
    per query — warm batches skip the independent optimizations). The
    report's [stats] hold only the strategy's own optimizations
    (Volcano-RU's materializations and rewritten queries; zero for the
    other strategies), which run in a session of their own; they are
    also folded into the service's counters ({!Plansrv.note_search}),
    where the independent optimizations already count. *)

val register : ?report:report -> Obs.Metrics.registry -> unit
(** Surface [report]'s sharing counters ([shared_groups],
    [materialize_chosen], [reuse_hits]) as gauges named
    ["volcano_search_mqo_" ^ counter]. Without a report they read 0: no
    batch ran. *)

val metric_names : string -> string list
(** [metric_names prefix] — the names {!register} creates. *)
