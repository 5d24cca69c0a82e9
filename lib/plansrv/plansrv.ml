module Fingerprint = Fingerprint

type config = {
  request : Relmodel.Optimizer.request;
  capacity : int;
  parameterize : bool;
  slow_ms : float;
}

(* Dynplan buckets per parameterized entry. *)
let dyn_buckets = 8

let config ?(capacity = 512) ?(parameterize = false) ?(slow_ms = 50.) request =
  if capacity < 1 then invalid_arg "Plansrv.config: capacity must be >= 1";
  if slow_ms < 0. then invalid_arg "Plansrv.config: slow_ms must be >= 0";
  { request; capacity; parameterize; slow_ms }

type payload =
  | Static of Relmodel.Optimizer.plan_node
  | Dynamic of Dynplan.t

type entry = {
  stamps : (string * int) list;  (** table -> stats_version at optimization *)
  payload : payload;
  bytes : string option;
      (** preformatted plan text, rendered once at insertion for static
          entries, so warm hits serve bytes without formatting work *)
  seq : int;  (** insertion number: past capacity, the lowest is evicted *)
}

module Smap = Map.Make (String)

(* Hot-path counters are atomics, not a mutex: every request records an
   outcome, and a single shared lock here serializes the whole service
   (and costs a futex round-trip per request under contention).
   Latency goes into the two histograms, whose count, sum and maximum
   are lock-free atomics too. The merged search stats are
   mutex-guarded ([stats_lock]) but only touched on the miss path. *)
type counters = {
  requests : int Atomic.t;
  hits : int Atomic.t;
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

(* The cache is one immutable map published through an atomic. A hit
   reads it with [Atomic.get] and a pure probe: no lock, no write to
   shared state. Misses, stale drops and invalidation sweeps build the
   next map under [lock], so writers never lose each other's updates.
   Hits do not reorder entries; eviction takes the oldest insertion. *)
type t = {
  cfg : config;
  cache : entry Smap.t Atomic.t;
  lock : Mutex.t;
  mutable inserted : int;  (** insertions so far, under [lock]; the next [seq] *)
  stats_lock : Mutex.t;
  counters : counters;
  slow : slow_log;
  registry : Obs.Metrics.registry;
}

let create cfg =
  let registry = Obs.Metrics.create () in
  let cache = Atomic.make Smap.empty in
  let counters =
    {
      requests = Atomic.make 0;
      hits = Atomic.make 0;
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
  atomic "misses" "requests that ran an optimization" counters.misses;
  atomic "rejected" "misses whose optimization produced no plan" counters.rejected;
  atomic "invalidations" "stale entries dropped" counters.invalidations;
  atomic "evictions" "capacity evictions" counters.evictions;
  atomic "param_served" "requests answered via parameterized entries"
    counters.param_served;
  Obs.Metrics.gauge registry ~help:"cached entries" "plansrv_entries" (fun () ->
      float_of_int (Smap.cardinal (Atomic.get cache)));
  Volcano.Search_stats.register registry counters.search;
  let slow =
    {
      sl_lock = Mutex.create ();
      sl_slots = Array.make slow_log_capacity None;
      sl_count = 0;
    }
  in
  {
    cfg;
    cache;
    lock = Mutex.create ();
    inserted = 0;
    stats_lock = Mutex.create ();
    counters;
    slow;
    registry;
  }

let registry t = t.registry

let service_request t = t.cfg.request

(* Extra search effort performed on behalf of the service but outside
   [serve_one] — e.g. a batch's re-optimizations — folded into
   the same merged view the registry exports. *)
let note_search t delta =
  Mutex.protect t.stats_lock (fun () ->
      Volcano.Search_stats.merge ~into:t.counters.search delta)

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

(* A worker's fingerprints, keyed by the request. A fingerprint is a
   pure function of the query, the required properties and the
   service's fixed [parameterize], so an entry never goes stale. The
   key test is physical identity first: a statement handed back by the
   SQL front end's memo costs a hash and a pointer comparison, and an
   equal query built anew still finds its entry. Only requests the
   cache answered are kept: they have been seen before, while a miss
   pays for an optimization anyway and may never come again. *)
module Fp_memo = Hashtbl.Make (struct
  type t = Relalg.Logical.expr * Relalg.Phys_prop.t

  let equal ((q1, r1) : t) (q2, r2) =
    (q1 == q2 || Relalg.Logical.equal q1 q2) && (r1 == r2 || Relalg.Phys_prop.equal r1 r2)

  let hash ((q, _) : t) = Hashtbl.hash q
end)

(* Emptied when full, like the SQL front end's statement memo. *)
let fp_memo_capacity = 256

type worker = {
  mutable session : Relmodel.Optimizer.session;
  mutable epoch : int;  (** catalog version the session was created under *)
  mutable stats_mark : Volcano.Search_stats.t;
      (** snapshot of the session's cumulative stats, for per-query deltas *)
  fingerprints : (Fingerprint.t * Relalg.Logical.expr) Fp_memo.t;
      (** {!Fingerprint.of_query}'s results for the requests answered
          from the cache *)
}

let worker t =
  {
    session = Relmodel.Optimizer.session t.cfg.request;
    epoch = Catalog.version t.cfg.request.catalog;
    stats_mark = Volcano.Search_stats.create ();
    fingerprints = Fp_memo.create 64;
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
  Option.map (fun plan -> Static plan) result.plan

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
          ~buckets:dyn_buckets ~required ()
      with
      | dyn -> Some (Dynamic dyn)
      | exception Invalid_argument _ -> optimize_static t w canonical required
    end
  end
  | Some _ | None -> optimize_static t w canonical required

let plan_of_payload payload (fp : Fingerprint.t) =
  match payload, fp.param with
  | Static plan, _ -> (Some plan, false)
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

(* Every write runs [f] under [t.lock], so the map it transforms has
   no competing writer; the atomic is for the release fence that makes
   the new map (and the entries it points to) safe to read lock-free on
   other domains. [f] returns the next map and a result for the
   caller. *)
let publish t f =
  Mutex.protect t.lock (fun () ->
      let map, result = f (Atomic.get t.cache) in
      Atomic.set t.cache map;
      result)

let bytes_of_payload = function
  | Static plan -> Some (Relmodel.Optimizer.explain plan)
  | Dynamic _ -> None

(* The key inserted first. Only an insertion that takes the cache past
   capacity scans for it. *)
let oldest map =
  fst
    (Smap.fold
       (fun key e ((_, seq) as acc) -> if e.seq < seq then (key, e.seq) else acc)
       map ("", max_int))

let serve_one t w query ~required =
  (* Monotonic, not wall-clock: an NTP step mid-request must not mint a
     negative (or wildly wrong) latency sample. *)
  let t0 = Obs.Clock.now_ns () in
  let key = (query, required) in
  let memoized = Fp_memo.find_opt w.fingerprints key in
  let ((fp, canonical) as found) =
    match memoized with
    | Some found -> found
    | None -> Fingerprint.of_query ~parameterize:t.cfg.parameterize query ~required
  in
  (* Warm probe against the immutable map: no lock, no write, no
     allocation beyond the response record. *)
  let lookup =
    match Smap.find_opt fp.Fingerprint.key (Atomic.get t.cache) with
    | Some entry when stamps_fresh t entry.stamps -> `Fresh entry
    | Some stale ->
      (* Drop the binding only if it is still the entry found stale.
         The probe above ran without the lock, so with two workers the
         other one may have dropped this entry, re-optimized and put a
         fresh one back in the meantime; removing by key would throw
         that fresh entry away. *)
      publish t (fun map ->
          match Smap.find_opt fp.Fingerprint.key map with
          | Some e when e == stale -> (Smap.remove fp.Fingerprint.key map, ())
          | Some _ | None -> (map, ()));
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
  | `Fresh entry ->
    if Option.is_none memoized then begin
      if Fp_memo.length w.fingerprints >= fp_memo_capacity then Fp_memo.reset w.fingerprints;
      Fp_memo.replace w.fingerprints key found
    end;
    finish Hit entry.bytes (Some entry.payload)
  | (`Empty | `Stale) as miss ->
    (* Optimize outside the lock: concurrent workers missing on the
       same key duplicate work but — optimization being deterministic —
       insert identical entries. *)
    let stamps = stamps_of t fp in
    let payload = optimize_payload t w fp canonical required in
    let bytes = Option.fold ~none:None ~some:bytes_of_payload payload in
    (match payload with
     | None -> note_reject t
     | Some payload ->
       let evicted =
         publish t (fun map ->
             let entry = { stamps; payload; bytes; seq = t.inserted } in
             t.inserted <- t.inserted + 1;
             let map = Smap.add fp.Fingerprint.key entry map in
             if Smap.cardinal map <= t.cfg.capacity then (map, false)
             else (Smap.remove (oldest map) map, true))
       in
       if evicted then count_eviction t);
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
    publish t (fun map ->
        let kept = Smap.filter (fun _ e -> not (List.mem_assoc table e.stamps)) map in
        (kept, Smap.cardinal map - Smap.cardinal kept))
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
  let entries = Smap.cardinal (Atomic.get t.cache) in
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
    "@[<v>requests=%d hits=%d misses=%d (hit rate %.1f%%)@,\
     rejected=%d invalidations=%d evictions=%d parameterized=%d entries=%d@,\
     warm: n=%d mean=%.3fms p50<=%.3fms p95<=%.3fms p99<=%.3fms max=%.3fms@,\
     cold: n=%d mean=%.3fms p50<=%.3fms p95<=%.3fms p99<=%.3fms max=%.3fms@,\
     search effort (misses): %a@]"
    m.requests m.hits m.misses
    (if m.requests = 0 then 0. else 100. *. float_of_int m.hits /. float_of_int m.requests)
    m.rejected m.invalidations m.evictions m.param_served m.entries m.warm.count
    m.warm.mean_ms
    m.warm.p50_ms m.warm.p95_ms m.warm.p99_ms m.warm.max_ms m.cold.count
    m.cold.mean_ms m.cold.p50_ms m.cold.p95_ms m.cold.p99_ms m.cold.max_ms
    Volcano.Search_stats.pp m.search

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
