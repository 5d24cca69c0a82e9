module Lru = Lru
module Fingerprint = Fingerprint

type config = {
  request : Relmodel.Optimizer.request;
  capacity : int;
  shards : int;
  parameterize : bool;
  dyn_buckets : int;
  slow_ms : float;
}

let config ?(capacity = 512) ?(shards = 8) ?(parameterize = false) ?(dyn_buckets = 8)
    ?(slow_ms = 50.) request =
  if capacity < 1 then invalid_arg "Plansrv.config: capacity must be >= 1";
  if shards < 1 then invalid_arg "Plansrv.config: shards must be >= 1";
  if slow_ms < 0. then invalid_arg "Plansrv.config: slow_ms must be >= 0";
  { request; capacity; shards; parameterize; dyn_buckets; slow_ms }

type cached = {
  plan : Relmodel.Optimizer.plan_node;
  search : Volcano.Search_stats.t;  (** per-query delta that produced the plan *)
  tasks_run : int;
}

type payload =
  | Static of cached
  | Dynamic of Dynplan.t

type entry = {
  stamps : (string * int) list;  (** table -> stats_version at optimization *)
  tables : string list;
  payload : payload;
  bytes : string option;
      (** preformatted plan text, rendered once at insertion for static
          entries, so warm hits serve bytes without formatting work *)
  serve_count : int Atomic.t;
}

module Smap = Map.Make (String)

(* A shard keeps two views of the same bindings: the mutex-guarded LRU
   (authoritative — recency, capacity, eviction) and an immutable map
   snapshot published through an atomic. Writers update both under the
   shard lock; warm readers consult only the snapshot, so a cache hit
   never takes a lock or mutates shared state (the epoch-style read
   path). The price is approximate recency: lock-free hits do not
   promote the entry, so eviction order degrades toward insertion
   order under pure-hit traffic. *)
type shard = {
  lock : Mutex.t;
  cache : entry Lru.t;
  snapshot : entry Smap.t Atomic.t;
}

(* Hot-path counters are atomics, not a mutex: every request records an
   outcome, and a single shared lock here serializes the whole service
   (and costs a futex round-trip per request under contention).
   Latency goes into the two histograms, whose count, sum and maximum
   are lock-free atomics too. The merged search stats are
   mutex-guarded ([stats_lock]) but only touched on the miss path. *)
type counters = {
  requests : int Atomic.t;
  hits : int Atomic.t;
  lockfree_hits : int Atomic.t;
      (** hits answered entirely from the shard snapshot: no lock, no
          LRU mutation (every warm hit in the current implementation) *)
  rejected : int Atomic.t;
      (** misses whose optimization produced no plan: the service had
          nothing to answer with *)
  misses : int Atomic.t;
  invalidations : int Atomic.t;
  evictions : int Atomic.t;
  param_served : int Atomic.t;
  warm_hist : Obs.Metrics.histogram;  (** hit latency, milliseconds *)
  cold_hist : Obs.Metrics.histogram;  (** miss latency, milliseconds *)
  search : Volcano.Search_stats.t;
}

(* Slow-query log: the most recent responses whose latency crossed the
   configured [slow_ms] threshold, each carrying the EXPLAIN provenance
   captured when its entry was cached. Slow requests are rare by
   definition, so a mutex-guarded ring costs nothing on the fast path
   (sub-threshold responses never touch it). *)
let slow_log_capacity = 64

type slow_entry = {
  sq_ns : int64;  (** monotonic stamp when the response finished *)
  sq_fingerprint : string;
  sq_outcome : string;  (** ["hit"] / ["miss"] / ["invalidated"] *)
  sq_latency_ms : float;
  sq_explain : string option;
      (** preformatted EXPLAIN text of the served plan, when the cache
          held one (static entries render it at insertion) *)
}

type slow_log = {
  sl_lock : Mutex.t;
  sl_slots : slow_entry option array;
  mutable sl_count : int;  (** total slow responses ever logged *)
}

type t = {
  cfg : config;
  shard_tbl : shard array;
  stats_lock : Mutex.t;
  counters : counters;
  slow : slow_log;
  registry : Obs.Metrics.registry;
}

let create cfg =
  let shard_capacity = max 1 ((cfg.capacity + cfg.shards - 1) / cfg.shards) in
  let registry = Obs.Metrics.create () in
  let shard_tbl =
    Array.init cfg.shards (fun _ ->
        {
          lock = Mutex.create ();
          cache = Lru.create ~capacity:shard_capacity;
          snapshot = Atomic.make Smap.empty;
        })
  in
  let counters =
    {
      requests = Atomic.make 0;
      hits = Atomic.make 0;
      lockfree_hits = Atomic.make 0;
      rejected = Atomic.make 0;
      misses = Atomic.make 0;
      invalidations = Atomic.make 0;
      evictions = Atomic.make 0;
      param_served = Atomic.make 0;
      warm_hist =
        Obs.Metrics.histogram registry ~help:"cache-hit serve latency (ms)"
          "plansrv_warm_latency_ms";
      cold_hist =
        Obs.Metrics.histogram registry ~help:"cache-miss serve latency (ms)"
          "plansrv_cold_latency_ms";
      search = Volcano.Search_stats.create ();
    }
  in
  (* Gauges read the service's own lock-free counters: the registry is
     a view, not a second set of books. *)
  let atomic name help a =
    Obs.Metrics.gauge registry ~help ("plansrv_" ^ name) (fun () ->
        float_of_int (Atomic.get a))
  in
  atomic "requests" "requests served" counters.requests;
  atomic "hits" "requests answered from the cache" counters.hits;
  atomic "lockfree_hits" "hits served from the shard snapshot without locking"
    counters.lockfree_hits;
  atomic "misses" "requests that ran an optimization" counters.misses;
  atomic "rejected" "misses whose optimization produced no plan" counters.rejected;
  atomic "invalidations" "stale entries dropped" counters.invalidations;
  atomic "evictions" "capacity evictions" counters.evictions;
  atomic "param_served" "requests answered via parameterized entries"
    counters.param_served;
  Obs.Metrics.gauge registry ~help:"cached entries across shards" "plansrv_entries"
    (fun () ->
      float_of_int
        (Array.fold_left
           (fun acc shard ->
             acc + Mutex.protect shard.lock (fun () -> Lru.length shard.cache))
           0 shard_tbl));
  Volcano.Search_stats.register registry counters.search;
  let slow =
    {
      sl_lock = Mutex.create ();
      sl_slots = Array.make slow_log_capacity None;
      sl_count = 0;
    }
  in
  { cfg; shard_tbl; stats_lock = Mutex.create (); counters; slow; registry }

let registry t = t.registry

let service_request t = t.cfg.request

(* Extra search effort performed on behalf of the service but outside
   [serve_one] — e.g. a feedback loop's re-optimizations — folded into
   the same merged view the registry exports. *)
let note_search t delta =
  Mutex.protect t.stats_lock (fun () ->
      Volcano.Search_stats.merge ~into:t.counters.search delta)

let shard_of t hash = t.shard_tbl.(hash mod Array.length t.shard_tbl)

type outcome =
  | Hit
  | Miss
  | Invalidated

type response = {
  plan : Relmodel.Optimizer.plan_node option;
  plan_bytes : string option;
      (** preformatted EXPLAIN text of [plan] for static entries,
          rendered when the entry was cached: warm hits return it
          without any formatting work *)
  outcome : outcome;
  parameterized : bool;
  latency_ms : float;
  fingerprint : string;
}

(* ---------- workers ---------- *)

type worker = {
  mutable session : Relmodel.Optimizer.session;
  mutable epoch : int;  (** catalog version the session was created under *)
  mutable stats_mark : Volcano.Search_stats.t;
      (** snapshot of the session's cumulative stats, for per-query deltas *)
}

let worker t =
  {
    session = Relmodel.Optimizer.session t.cfg.request;
    epoch = Catalog.version t.cfg.request.catalog;
    stats_mark = Volcano.Search_stats.create ();
  }

(* A session's memo holds winners computed under the statistics current
   at optimization time; any catalog change makes them unreliable, so
   the worker renews its session (fresh memo) on an epoch mismatch. *)
let ensure_fresh_session t w =
  let v = Catalog.version t.cfg.request.catalog in
  if v <> w.epoch then begin
    w.session <- Relmodel.Optimizer.session t.cfg.request;
    w.epoch <- v;
    w.stats_mark <- Volcano.Search_stats.create ()
  end

(* ---------- miss path ---------- *)

let stamps_of t (fp : Fingerprint.t) =
  List.map (fun tb -> (tb, Catalog.stats_version t.cfg.request.catalog tb)) fp.tables

let stamps_fresh t stamps =
  List.for_all
    (fun (tb, v) -> Catalog.stats_version t.cfg.request.catalog tb = v)
    stamps

(* The statistics range of the column the parameter is compared
   against; the Dynplan bucket grid spans it. *)
let param_range t column =
  match String.index_opt column '.' with
  | None -> None
  | Some i -> begin
    match Catalog.find_opt t.cfg.request.catalog (String.sub column 0 i) with
    | None -> None
    | Some table -> begin
      match Catalog.Stats.column table.Catalog.stats column with
      | None -> None
      | Some cs -> begin
        match cs.Catalog.Stats.min_value, cs.Catalog.Stats.max_value with
        | Some mn, Some mx -> begin
          match Relalg.Value.to_float mn, Relalg.Value.to_float mx with
          | Some lo, Some hi when lo < hi -> Some (lo, hi)
          | _, _ -> None
        end
        | _, _ -> None
      end
    end
  end

let optimize_static t w canonical required =
  ensure_fresh_session t w;
  let result = Relmodel.Optimizer.optimize_in w.session canonical ~required in
  let delta = Volcano.Search_stats.diff ~since:w.stats_mark result.stats in
  w.stats_mark <- Volcano.Search_stats.copy result.stats;
  Mutex.protect t.stats_lock (fun () ->
      Volcano.Search_stats.merge ~into:t.counters.search delta);
  Option.map
    (fun plan -> Static { plan; search = delta; tasks_run = result.tasks_run })
    result.plan

(* Parameterized miss: optimize the literal-erased template once per
   bucket. Any failure (no statistics range, a bucket without a plan)
   falls back to a static entry for the concrete literal. *)
let optimize_payload t w (fp : Fingerprint.t) canonical required =
  match fp.param with
  | Some (column, _) when t.cfg.parameterize -> begin
    match param_range t column with
    | None -> optimize_static t w canonical required
    | Some range -> begin
      let template v = Fingerprint.with_parameter canonical v in
      match
        Dynplan.prepare ~request:t.cfg.request template ~range
          ~buckets:t.cfg.dyn_buckets ~required ()
      with
      | dyn -> Some (Dynamic dyn)
      | exception Invalid_argument _ -> optimize_static t w canonical required
    end
  end
  | Some _ | None -> optimize_static t w canonical required

let plan_of_payload payload (fp : Fingerprint.t) =
  match payload, fp.param with
  | Static c, _ -> (Some c.plan, false)
  | Dynamic dyn, Some (_, value) ->
    let b = Dynplan.choose dyn value in
    (Some (Dynplan.instantiate_node b.Dynplan.plan ~witness:b.Dynplan.witness ~actual:value), true)
  | Dynamic dyn, None ->
    (* Unreachable: a Dynamic entry's key has its literal erased, so any
       request hashing to it carries a param slot. Serve the static
       fallback plan rather than failing. *)
    (Some dyn.Dynplan.static_plan, true)

(* ---------- serving ---------- *)

let record_latency t outcome parameterized dt_ms =
  let c = t.counters in
  ignore (Atomic.fetch_and_add c.requests 1);
  if parameterized then ignore (Atomic.fetch_and_add c.param_served 1);
  match outcome with
  | Hit ->
    ignore (Atomic.fetch_and_add c.hits 1);
    Obs.Metrics.observe c.warm_hist dt_ms
  | Miss | Invalidated ->
    ignore (Atomic.fetch_and_add c.misses 1);
    if outcome = Invalidated then ignore (Atomic.fetch_and_add c.invalidations 1);
    Obs.Metrics.observe c.cold_hist dt_ms

let count_eviction t = ignore (Atomic.fetch_and_add t.counters.evictions 1)

let outcome_name = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Invalidated -> "invalidated"

let slow_note t ~fingerprint ~outcome ~latency_ms ~explain =
  let e =
    {
      sq_ns = Obs.Clock.now_ns ();
      sq_fingerprint = fingerprint;
      sq_outcome = outcome_name outcome;
      sq_latency_ms = latency_ms;
      sq_explain = explain;
    }
  in
  Mutex.protect t.slow.sl_lock (fun () ->
      t.slow.sl_slots.(t.slow.sl_count mod slow_log_capacity) <- Some e;
      t.slow.sl_count <- t.slow.sl_count + 1)

(* A miss the optimizer could not answer (no plan within the limit) is
   one of the abnormal ends the flight recorder dumps on: the recorder
   travels in the optimizer request, so the engine rings it just filled
   are the ones captured. *)
let note_reject t =
  ignore (Atomic.fetch_and_add t.counters.rejected 1);
  match t.cfg.request.Relmodel.Optimizer.recorder with
  | None -> ()
  | Some fr -> Obs.Flight_recorder.trigger fr ~reason:"plansrv-reject"

(* Snapshot writes happen under the shard lock, so the functional update
   below has no competing writer; the atomic is for the release fence
   that makes the new map (and the entries it points to) safe to read
   lock-free on other domains. *)
let snap_update shard f = Atomic.set shard.snapshot (f (Atomic.get shard.snapshot))

let bytes_of_payload = function
  | Static c -> Some (Relmodel.Optimizer.explain c.plan)
  | Dynamic _ -> None

let serve_one t w query ~required =
  (* Monotonic, not wall-clock: an NTP step mid-request must not mint a
     negative (or wildly wrong) latency sample. *)
  let t0 = Obs.Clock.now_ns () in
  let fp, canonical =
    Fingerprint.of_query ~parameterize:t.cfg.parameterize query ~required
  in
  let shard = shard_of t fp.Fingerprint.hash in
  (* Warm probe against the immutable snapshot: no lock, no LRU
     mutation, no allocation beyond the response record. *)
  let lookup =
    match Smap.find_opt fp.Fingerprint.key (Atomic.get shard.snapshot) with
    | Some entry when stamps_fresh t entry.stamps ->
      ignore (Atomic.fetch_and_add entry.serve_count 1);
      ignore (Atomic.fetch_and_add t.counters.lockfree_hits 1);
      `Fresh entry
    | Some _ ->
      (* Stale under the snapshot; drop it from both views under the
         lock. Concurrent workers may race here — the second remove is
         a no-op. *)
      Mutex.protect shard.lock (fun () ->
          ignore (Lru.remove shard.cache fp.Fingerprint.key);
          snap_update shard (Smap.remove fp.Fingerprint.key));
      `Stale
    | None -> `Empty
  in
  let finish outcome bytes payload =
    let plan, parameterized =
      match payload with
      | Some p -> plan_of_payload p fp
      | None -> (None, false)
    in
    let dt_ms = Obs.Clock.span_ms ~since:t0 (Obs.Clock.now_ns ()) in
    record_latency t outcome parameterized dt_ms;
    if dt_ms >= t.cfg.slow_ms then
      slow_note t ~fingerprint:fp.Fingerprint.key ~outcome ~latency_ms:dt_ms
        ~explain:bytes;
    {
      plan;
      plan_bytes = bytes;
      outcome;
      parameterized;
      latency_ms = dt_ms;
      fingerprint = fp.Fingerprint.key;
    }
  in
  match lookup with
  | `Fresh entry -> finish Hit entry.bytes (Some entry.payload)
  | (`Empty | `Stale) as miss ->
    (* Optimize outside the shard lock: concurrent workers missing on
       the same key duplicate work but — optimization being
       deterministic — insert identical entries. *)
    let stamps = stamps_of t fp in
    let payload = optimize_payload t w fp canonical required in
    let bytes = Option.fold ~none:None ~some:bytes_of_payload payload in
    (match payload with
     | None -> note_reject t
     | Some payload ->
       let entry =
         {
           stamps;
           tables = fp.Fingerprint.tables;
           payload;
           bytes;
           serve_count = Atomic.make 0;
         }
       in
       let evicted =
         Mutex.protect shard.lock (fun () ->
             let evicted = Lru.add shard.cache fp.Fingerprint.key entry in
             snap_update shard (fun snap ->
                 let snap = Smap.add fp.Fingerprint.key entry snap in
                 match evicted with
                 | Some (victim, _) -> Smap.remove victim snap
                 | None -> snap);
             evicted)
       in
       if Option.is_some evicted then count_eviction t);
    finish (match miss with `Empty -> Miss | `Stale -> Invalidated) bytes payload

let serve ?(workers = 1) t requests =
  let n = Array.length requests in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let work () =
    let w = worker t in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let query, required = requests.(i) in
        results.(i) <- Some (serve_one t w query ~required);
        loop ()
      end
    in
    loop ()
  in
  if workers <= 1 then work ()
  else List.iter Domain.join (List.init workers (fun _ -> Domain.spawn work));
  Array.map (function Some r -> r | None -> assert false) results

(* ---------- invalidation ---------- *)

let invalidate_table t table =
  let dropped =
    Array.fold_left
      (fun acc shard ->
        acc
        + Mutex.protect shard.lock (fun () ->
              let removed =
                Lru.remove_if shard.cache (fun _ entry ->
                    List.mem table entry.tables)
              in
              snap_update shard (fun snap ->
                  List.fold_left (fun s (k, _) -> Smap.remove k s) snap removed);
              List.length removed))
      0 t.shard_tbl
  in
  if dropped > 0 then ignore (Atomic.fetch_and_add t.counters.invalidations dropped);
  dropped

(* ---------- observability ---------- *)

type latency = {
  count : int;
  mean_ms : float;
  max_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

type metrics = {
  requests : int;
  hits : int;
  lockfree_hits : int;
  misses : int;
  rejected : int;
  invalidations : int;
  evictions : int;
  param_served : int;
  entries : int;
  cold : latency;
  warm : latency;
  search : Volcano.Search_stats.t;
}

let metrics t =
  let entries =
    Array.fold_left
      (fun acc shard -> acc + Mutex.protect shard.lock (fun () -> Lru.length shard.cache))
      0 t.shard_tbl
  in
  let c = t.counters in
  (* Count, sum and max come from the same histogram as the quantiles,
     so [max_ms] can never fall below [p99_ms]. *)
  let lat hist =
    let count = Obs.Metrics.hist_count hist in
    {
      count;
      mean_ms = (if count = 0 then 0. else Obs.Metrics.hist_sum hist /. float_of_int count);
      max_ms = Obs.Metrics.hist_max hist;
      p50_ms = Obs.Metrics.quantile hist 0.5;
      p95_ms = Obs.Metrics.quantile hist 0.95;
      p99_ms = Obs.Metrics.quantile hist 0.99;
    }
  in
  let search =
    Mutex.protect t.stats_lock (fun () -> Volcano.Search_stats.copy c.search)
  in
  {
    requests = Atomic.get c.requests;
    hits = Atomic.get c.hits;
    lockfree_hits = Atomic.get c.lockfree_hits;
    misses = Atomic.get c.misses;
    rejected = Atomic.get c.rejected;
    invalidations = Atomic.get c.invalidations;
    evictions = Atomic.get c.evictions;
    param_served = Atomic.get c.param_served;
    entries;
    cold = lat c.cold_hist;
    warm = lat c.warm_hist;
    search;
  }

let pp_metrics ppf m =
  Format.fprintf ppf
    "@[<v>requests=%d hits=%d (lock-free %d) misses=%d (hit rate %.1f%%)@,\
     rejected=%d invalidations=%d evictions=%d parameterized=%d entries=%d@,\
     warm: n=%d mean=%.3fms p50<=%.3fms p95<=%.3fms p99<=%.3fms max=%.3fms@,\
     cold: n=%d mean=%.3fms p50<=%.3fms p95<=%.3fms p99<=%.3fms max=%.3fms@,\
     search effort (misses): %a@]"
    m.requests m.hits m.lockfree_hits m.misses
    (if m.requests = 0 then 0. else 100. *. float_of_int m.hits /. float_of_int m.requests)
    m.rejected m.invalidations m.evictions m.param_served m.entries m.warm.count
    m.warm.mean_ms
    m.warm.p50_ms m.warm.p95_ms m.warm.p99_ms m.warm.max_ms m.cold.count
    m.cold.mean_ms m.cold.p50_ms m.cold.p95_ms m.cold.p99_ms m.cold.max_ms
    Volcano.Search_stats.pp m.search

let slow_threshold_ms t = t.cfg.slow_ms

let slow_log t =
  Mutex.protect t.slow.sl_lock (fun () ->
      let n = Array.length t.slow.sl_slots in
      let kept = min t.slow.sl_count n in
      List.init kept (fun i ->
          (* Oldest surviving entry first, mirroring the ring order. *)
          let idx = if t.slow.sl_count <= n then i else (t.slow.sl_count + i) mod n in
          t.slow.sl_slots.(idx))
      |> List.filter_map Fun.id)

let slow_log_json t =
  let module J = Obs.Json in
  let entries =
    List.map
      (fun e ->
        J.Obj
          [
            ("ns", J.int (Int64.to_int e.sq_ns));
            ("fingerprint", J.Str e.sq_fingerprint);
            ("outcome", J.Str e.sq_outcome);
            ("latency_ms", J.Num e.sq_latency_ms);
            ( "explain",
              match e.sq_explain with None -> J.Null | Some s -> J.Str s );
          ])
      (slow_log t)
  in
  J.Obj
    [
      ("threshold_ms", J.Num t.cfg.slow_ms);
      ("logged", J.int (Mutex.protect t.slow.sl_lock (fun () -> t.slow.sl_count)));
      ("entries", J.Arr entries);
    ]

let status_json t =
  let module J = Obs.Json in
  let m = metrics t in
  let lat name l =
    ( name,
      J.Obj
        [
          ("count", J.int l.count);
          ("mean_ms", J.Num l.mean_ms);
          ("max_ms", J.Num l.max_ms);
          ("p50_ms", J.Num l.p50_ms);
          ("p95_ms", J.Num l.p95_ms);
          ("p99_ms", J.Num l.p99_ms);
        ] )
  in
  J.Obj
    [
      ("requests", J.int m.requests);
      ("hits", J.int m.hits);
      ("lockfree_hits", J.int m.lockfree_hits);
      ("misses", J.int m.misses);
      ("rejected", J.int m.rejected);
      ("invalidations", J.int m.invalidations);
      ("evictions", J.int m.evictions);
      ("param_served", J.int m.param_served);
      ("entries", J.int m.entries);
      ( "hit_rate",
        J.Num
          (if m.requests = 0 then 0.
           else float_of_int m.hits /. float_of_int m.requests) );
      ("slow_threshold_ms", J.Num t.cfg.slow_ms);
      ("slow_logged", J.int (Mutex.protect t.slow.sl_lock (fun () -> t.slow.sl_count)));
      lat "warm" m.warm;
      lat "cold" m.cold;
    ]
