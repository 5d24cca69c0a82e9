(** Always-on flight recorder: fixed-size, lock-free ring buffers of
    recent engine events, dumped post-mortem when a search ends
    abnormally (budget/timeout pause, feedback escape hatch, plansrv
    rejection).

    A running search records into a ring of preallocated slots it holds
    alone ({!recording}); plan-service workers sharing one recorder
    each hold their own. {!record} mutates a slot in place — no
    allocation, no lock, no branch on a "enabled" flag — so
    steady-state cost is a few stores per event. A finished search
    hands its ring back, events and all, and the next search records
    on over the oldest, like {!Profile.writing}: the recorder holds at
    most one ring per concurrent search, however many it has served.
    Taking and returning rings is the only mutex-guarded state.

    Recording is observation-only: it must never influence the search
    (the plan-inertness contract). Reads of a live ring may see torn
    slots; {!trigger} fires on the way out of a failing run, where a
    corrupt tail event beats no record. *)

type kind = Task_begin | Task_end | Publish | Prune | Incumbent

val kind_name : kind -> string

type ring
(** One event ring. Single-writer: held by one search at a time. *)

type t

val create : ?capacity:int -> ?path:string -> unit -> t
(** [capacity] is per ring (default 512); [path], when
    given, is where {!trigger} writes the JSON post-mortem. *)

val capacity : t -> int

val recording : t -> (ring -> 'a) -> 'a
(** [recording t f] runs [f] with a ring no other writer holds: a free
    one, or a new one when every ring is in use. The ring goes back to
    [t] when [f] returns or raises. Thread-safe. *)

val rings : t -> int
(** Rings made so far: the most writers that recorded at once. *)

val record : ring -> kind -> group:int -> detail:int -> unit
(** Record one event, overwriting the oldest when the ring is full.
    Allocation-free and lock-free. [group] is the memo group concerned
    (or [-1]); [detail] is kind-specific (task kind index, goal id,
    ...). *)

val record_at : ring -> kind -> ns:int -> group:int -> detail:int -> unit
(** {!record} with a timestamp the caller already read (monotonic
    nanoseconds collapsed to an int, as {!Clock.now_int} reads them), so
    a bracket timed by the profiler reads the clock once per edge. *)

(** {1 Post-mortem view} *)

type event = {
  ns : int;  (** monotonic nanoseconds, collapsed to int *)
  kind : kind;
  group : int;
  detail : int;
}

val events : t -> event list
(** Surviving events from every ring, oldest first (merged by
    timestamp). *)

val recorded : t -> int
(** Total events ever recorded across rings (including overwritten). *)

val dropped : t -> int
(** Events lost to ring wraparound. *)

val to_json : ?reason:string -> t -> Json.t
(** [{"reason", "capacity", "rings", "recorded", "dropped", "events"}]:
    at most [capacity * rings] surviving events, oldest first. *)

val trigger : t -> reason:string -> unit
(** Mark an abnormal end: remembers [reason], bumps the dump counter,
    and writes the JSON post-mortem if a path is configured. *)

val dumps : t -> int
(** Number of {!trigger} calls so far. *)

val last_reason : t -> string
(** Reason of the most recent trigger ([""] if none). *)
