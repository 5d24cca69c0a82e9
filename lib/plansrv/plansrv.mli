(** The optimization service: a bounded plan cache in front of
    {!Relmodel.Optimizer}, served concurrently by OCaml domains.

    In a system serving heavy repeated traffic, plan caching — not plan
    search — absorbs most query arrivals. A request is fingerprinted
    ({!Fingerprint}), looked up by its key in the cache, and answered
    from it when a fresh entry exists; otherwise the worker's own
    optimizer session optimizes the canonical form, populates the
    cache, and answers. The cache is one immutable map published
    through an atomic. Every hit reads it without taking a lock, so
    warm throughput scales with serving domains; misses, stale drops
    and invalidation sweeps publish a new map under one mutex. Past
    capacity, the oldest insertion is evicted. Entries are stamped
    with the catalog statistics versions they were optimized under and
    invalidated lazily when the statistics change. Parameterized entries delegate to {!Dynplan}
    buckets, so one cached template serves a whole range of literal
    values. A worker fingerprints a repeated query once: it keeps the
    fingerprints of the requests the cache answered, and finds them
    again by the query's physical identity or structural equality.

    Serving is deterministic: every response carries the plan the
    sequential optimizer would produce for the canonical form of the
    query, regardless of worker count, scheduling, or cache state. *)

module Fingerprint = Fingerprint

type config = {
  request : Relmodel.Optimizer.request;
      (** optimizer configuration used by every worker session and
          cache-miss optimization. Each optimization is sequential; the
          service parallelises across queries with its workers. *)
  capacity : int;
      (** most cached entries; an insertion past it evicts the oldest
          insertion *)
  parameterize : bool;
      (** erase the single numeric literal from fingerprints and back
          the entry with 8 {!Dynplan} buckets *)
  slow_ms : float;
      (** responses at or above this latency land in the slow-query log
          ({!slow_log}) with their captured EXPLAIN provenance *)
}

val config :
  ?capacity:int ->
  ?parameterize:bool ->
  ?slow_ms:float ->
  Relmodel.Optimizer.request ->
  config
(** Defaults: capacity 512, parameterization off, slow threshold
    50ms. *)

type t
(** A running service: the cache map plus its observability counters.
    Safe to share across domains. *)

val create : config -> t
(** Create an empty service. *)

(** How a request was answered. *)
type outcome =
  | Hit  (** fresh cache entry *)
  | Miss  (** no entry; optimized and populated *)
  | Invalidated
      (** an entry existed but its statistics stamps were stale: the
          entry was evicted, the query re-optimized and re-populated *)

type response = {
  plan : Relmodel.Optimizer.plan_node option;
      (** the winning plan for the {e canonical} form of the query
          ([None] only when optimization itself finds no plan) *)
  plan_bytes : string option;
      (** preformatted EXPLAIN text of [plan], rendered once when the
          entry was cached; warm hits hand it back without formatting
          work. [None] for parameterized ({!Dynplan}-backed) entries,
          whose plan depends on the literal. *)
  outcome : outcome;
  parameterized : bool;  (** answered through a {!Dynplan}-backed entry *)
  latency_ms : float;
  fingerprint : string;  (** full cache key *)
}

(** {1 Serving} *)

type worker
(** A serving worker: an optimizer session, the catalog epoch it was
    created under, and a bounded memo of the fingerprints of the
    requests it answered from the cache. Workers are single-threaded;
    create one per domain. *)

val worker : t -> worker
(** A fresh worker for this service, with its own optimizer session. *)

val serve_one : t -> worker -> Relalg.Logical.expr -> required:Relalg.Phys_prop.t -> response
(** Serve a single request on this worker (the line-at-a-time loop of
    [volcano-cli serve]). *)

val serve :
  ?workers:int ->
  t ->
  (Relalg.Logical.expr * Relalg.Phys_prop.t) array ->
  response array
(** Serve a batch: [workers] domains (default 1 = run on the calling
    domain) pull requests from a shared queue until it drains.
    [results.(i)] answers [requests.(i)]. *)

(** {1 Invalidation} *)

val invalidate_table : t -> string -> int
(** Proactively drop every cache entry whose fingerprint references the
    named table, returning how many were dropped. (Entries are also
    invalidated lazily on lookup via statistics version stamps; this
    sweep is for operators who want the space back immediately.) *)

(** {1 Observability} *)

type latency = {
  count : int;
  mean_ms : float;
  max_ms : float;
  p50_ms : float;  (** median, from the service's log-bucketed histogram *)
  p95_ms : float;
  p99_ms : float;
      (** quantiles are bucket upper bounds (capped at the observed
          maximum), so they over-estimate by at most one power of two *)
}

type metrics = {
  requests : int;
  hits : int;
      (** requests answered from the cache; each read the published map
          without a lock *)
  misses : int;
  rejected : int;
      (** misses whose optimization produced no plan (nothing to cache
          or answer with); each one also triggers the optimizer
          request's flight recorder, when present, with reason
          ["plansrv-reject"] *)
  invalidations : int;  (** stale-stamp evictions plus proactive sweeps *)
  evictions : int;  (** capacity evictions, oldest insertion first *)
  param_served : int;  (** requests answered through parameterized entries *)
  entries : int;  (** current cache population *)
  cold : latency;  (** misses and invalidations: full optimization *)
  warm : latency;  (** hits: cache lookup *)
  search : Volcano.Search_stats.t;
      (** merged search effort of every cache-miss optimization *)
}

val metrics : t -> metrics
(** Counters are exact totals (lock-free atomics on the serving path);
    a snapshot taken while requests are in flight may observe a request
    whose outcome counter is updated but whose latency is not yet, so
    cross-counter identities (e.g. warm.count = hits) are guaranteed
    only at quiescence. *)

val pp_metrics : Format.formatter -> metrics -> unit
(** Multi-line operator-facing rendering: hit rate, latency profiles
    (mean, quantiles, max), and the merged search effort. *)

val service_request : t -> Relmodel.Optimizer.request
(** The optimizer request the service was configured with (shared by
    {!Mqo}'s batch entry point to run its re-optimization passes under
    the same configuration). *)

val note_search : t -> Volcano.Search_stats.t -> unit
(** Fold a search-effort delta performed on behalf of the service but
    outside {!serve_one} — e.g. a feedback loop's re-optimizations of
    served plans, or a multi-query batch's re-optimizations against
    shared results — into the merged view {!metrics} and {!registry}
    export. *)

val registry : t -> Obs.Metrics.registry
(** The service's metrics registry: every counter above as a gauge
    ([plansrv_*]), warm/cold latency histograms
    ([plansrv_warm_latency_ms], [plansrv_cold_latency_ms]), and the
    merged search-effort counters ([volcano_search_*]); the layers above
    the service add their own gauges to it. Export with
    {!Obs.Metrics.to_prometheus} or {!Obs.Metrics.to_json} — this is
    what [volcano-cli serve --metrics-port] serves. *)

(** {1 Slow-query log and service status} *)

(** One slow response: latency at or above the configured [slow_ms]. *)
type slow_entry = {
  sq_ns : int64;  (** monotonic stamp when the response finished *)
  sq_fingerprint : string;
  sq_outcome : string;  (** ["hit"] / ["miss"] / ["invalidated"] *)
  sq_latency_ms : float;
  sq_explain : string option;
      (** EXPLAIN provenance of the served plan, captured when the
          entry was cached (static entries only) *)
}

val slow_threshold_ms : t -> float
(** The configured slow-query threshold. *)

val slow_log : t -> slow_entry list
(** The most recent slow responses (up to a fixed ring capacity),
    oldest first. Empty until some response crosses the threshold. *)

val slow_log_json : t -> Obs.Json.t
(** The slow log as JSON — what [volcano-cli serve --metrics-port]
    answers on [/slow]. *)

val status_json : t -> Obs.Json.t
(** A one-shot service status document (counters, hit rate, latency
    profiles, slow-log occupancy) — what [volcano-cli serve
    --metrics-port] answers on [/status]. *)
