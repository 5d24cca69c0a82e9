(** A small metrics registry: counters, closure-backed gauges, and
    log-bucketed histograms, exported as Prometheus text or JSON.

    Hot-path instruments are lock-free: counters are atomic integers
    and histogram observation touches one atomic bucket plus atomic
    count/sum/max cells, so domains can record concurrently without a
    mutex. The registry itself is mutex-guarded, but only registration
    and export take the lock. *)

type registry

val create : unit -> registry

(** {1 Counters} — monotonically increasing integers. *)

type counter

val counter : registry -> ?help:string -> string -> counter
(** Register (or fetch, if the name exists) a counter. *)

val incr : ?by:int -> counter -> unit

val counter_value : counter -> int

(** {1 Gauges} — read through a closure at export time, so existing
    mutable statistics records (e.g. {!Volcano.Search_stats.t}) can be
    surfaced without double bookkeeping. *)

val gauge : registry -> ?help:string -> string -> (unit -> float) -> unit
(** Registering an existing name replaces its reader. *)

val before_export : registry -> (unit -> unit) -> unit
(** [before_export reg f] runs [f] once at the start of every export,
    before any gauge is read, so gauges that read one costly
    computation can share it per export instead of redoing it each.
    Hooks run in registration order. *)

(** {1 Histograms} — power-of-two log-bucketed, for long-tailed
    distributions (latencies, per-goal task counts). Quantiles are
    estimated from the bucket walk: the reported value is the upper
    bound of the bucket holding the quantile rank (capped at the
    observed maximum), so estimates are conservative and never more
    than 2x the true value. *)

type histogram

val histogram : registry -> ?help:string -> string -> histogram
(** Register (or fetch, if the name exists) a histogram. *)

val observe : histogram -> float -> unit

val hist_count : histogram -> int

val hist_sum : histogram -> float

val hist_max : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0,1]; [0.] when the histogram is empty. *)

(** {1 Export} *)

val to_prometheus : registry -> string
(** Prometheus text exposition format (version 0.0.4): counters,
    gauges, and histograms with cumulative [le] buckets. *)

val to_json : registry -> Json.t
(** [{"counters": {..}, "gauges": {..}, "histograms": {name:
    {count, sum, max, p50, p95, p99}}}]. *)
