(** Always-on flight recorder: a fixed-size, lock-free ring buffer of
    recent engine events per searcher, dumped post-mortem when a search
    ends abnormally (budget/timeout pause, feedback escape hatch,
    plansrv rejection).

    Each searcher registers its own ring (the search engine records on
    track 0; plan-service workers sharing one recorder each register
    one) of preallocated slots; {!record} mutates a slot in place — no
    allocation, no lock, no branch on a "enabled" flag — so steady-state
    cost is a few stores per event. The collector registration list is
    the only mutex-guarded state, exactly like {!Trace} and {!Profile}.

    Recording is observation-only: it must never influence the search
    (the plan-inertness contract). Reads of a live ring may see torn
    slots; {!trigger} fires on the way out of a failing run, where a
    corrupt tail event beats no record. *)

type kind = Task_begin | Task_end | Publish | Prune | Incumbent

val kind_name : kind -> string

type ring
(** One track's event ring. Single-writer. *)

type t

val default_capacity : int

val create : ?capacity:int -> ?path:string -> unit -> t
(** [capacity] is per ring (default {!default_capacity}); [path], when
    given, is where {!trigger} writes the JSON post-mortem. *)

val capacity : t -> int

val ring : t -> track:int -> ring
(** Register a new ring for [track]. Thread-safe. *)

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
  track : int;
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

val tracks : t -> int list

val to_json : ?reason:string -> t -> Json.t

val set_path : t -> string -> unit
(** Set (or replace) the post-mortem destination. *)

val trigger : t -> reason:string -> unit
(** Mark an abnormal end: remembers [reason], bumps the dump counter,
    and writes the JSON post-mortem if a path is configured. *)

val dumps : t -> int
(** Number of {!trigger} calls so far. *)

val last_reason : t -> string
(** Reason of the most recent trigger ([""] if none). *)
