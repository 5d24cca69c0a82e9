(** Per-rule / per-enforcer / per-operator search effort attribution.

    A profiler hands out one buffer per {e writer} — each search engine
    makes one, so plan-service workers sharing one profiler each write
    their own, like {!Trace}. Buffers are
    single-writer, so the task hot path records without locks. A
    writer resolves each attribution [(kind, name)] to a {!cell} once —
    the only place a name is hashed — and then charges tasks to it with
    integer adds alone: no string, tuple, closure or boxed integer per
    task.

    A buffer is {e live} only while its writer runs ({!writing}); when
    the writer finishes, its counts are folded into the collector
    under the collector's lock. So the collector holds at most as many
    live buffers as there are concurrent writers, however many
    optimizations or sessions it has seen, and
    {!report} merges the folded counts with the live buffers.

    The attribution contract: the engine charges {e exactly one}
    {!task} call per executed task (so the sum of per-entry task counts
    equals the engine's total task counter), plus side-channel counts —
    mexprs generated per rule firing, plans won per rule, goals pruned
    per rule, and wasted tasks (tasks spent under a move whose subtree
    produced no winner). Recording must never influence the search:
    the profiler is observation-only and plan-inert. *)

type kind = Rule | Enforcer | Operator | Engine

val kind_name : kind -> string

type buf
(** One writer's attribution buffer. Single-writer: only the owning
    domain may record into it. *)

type cell
(** The counters of one [(kind, name)] in one buffer. *)

type t
(** A collector: the folded counts of finished writers plus the
    buffers of running ones. *)

val create : unit -> t

val buf : t -> buf
(** A new buffer, idle until {!writing}. Thread-safe. *)

val writing : buf -> (unit -> 'a) -> 'a
(** [writing b f] runs [f] as [b]'s writer: [b] is live (visible to
    {!report}) while [f] runs, and its counts are folded into the
    collector when [f] returns or raises. Nested calls on a live
    buffer just run [f]. *)

val cell : buf -> kind -> string -> cell
(** Find or create [(kind, name)]'s cell in [b]. Hashes [name]: resolve
    once per attribution site, not per task. A cell stays valid across
    {!writing} brackets. *)

val task : cell -> ns:int -> unit
(** Charge one executed task and its monotonic time in nanoseconds. *)

val mexprs : cell -> int -> unit
(** Charge [n] generated mexprs (a rule firing's yield). *)

val plan_won : cell -> unit
(** The winning plan of some goal came from this cell's rule or
    enforcer. *)

val pruned : cell -> unit
(** A goal or move of this cell's rule or enforcer was pruned. *)

val wasted : cell -> int -> unit
(** Charge [n] tasks of wasted work: tasks executed while pursuing a
    move whose subtree produced no winner. *)

val live_buffers : t -> int
(** Buffers whose writer is running now. *)

(** {1 Merged report} *)

type entry = {
  kind : kind;
  name : string;
  tasks : int;
  mexprs : int;
  plans_won : int;
  pruned : int;
  wasted : int;
  ns : int64;  (** cumulative monotonic task time *)
}

val report : t -> entry list
(** Every entry merged across buffers, sorted by cumulative time
    (descending). Exact once all writers finished; during a run, the
    live buffers' counts are read as they stand. *)

val total_tasks : t -> int
(** Sum of per-entry task counts — must equal the engine's total task
    counter (the attribution-parity invariant). *)

val to_json : t -> Json.t

val pp_table : ?top:int -> Format.formatter -> t -> unit
(** Human-readable top-N table, time-ordered. *)

val register : ?prefix:string -> t -> Metrics.registry -> unit
(** Export rule and enforcer entries as [rule_*] gauges (tasks, mexprs,
    plans_won, wasted, time_ms per entry). Gauges read live state at
    scrape time: each export merges one report, which all of them
    read. *)
