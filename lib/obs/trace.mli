(** Hierarchical span tracing for the search engine.

    A collector owns one buffer per {e track} (the search engine records
    on track 0). A buffer is single-writer — the domain that owns it —
    so spans are recorded without locks; the collector's registration
    list is the only mutex-guarded state. After the run, {!spans}
    merges every buffer into one start-ordered list.

    Spans form a tree through parent ids: a [goal] span brackets one
    (group, property, limit) optimization goal and carries its outcome
    ([won], [failed], [hit], [pruned-lb], [cycle], ...); each executed
    engine task is a [task] span parented to the goal it serves, so
    per-kind task-span counts equal the engine's task counters; [phase]
    spans bracket whole phases of a caller's own work. *)

type span = {
  sp_id : int;  (** unique across tracks; see {!id} *)
  sp_parent : int;  (** 0 = no parent *)
  sp_track : int;
  sp_cat : string;  (** ["task"], ["goal"], or ["phase"] *)
  sp_name : string;
  sp_group : int;  (** memo group the span concerns, or [-1] *)
  sp_start : int64;  (** {!Clock.now_ns} at open *)
  mutable sp_end : int64;  (** [0L] while open *)
  mutable sp_outcome : string;  (** [""] = none recorded *)
  mutable sp_args : (string * string) list;
}

type buf
(** One track's span buffer. Single-writer: only the owning domain may
    open or close spans in it. *)

type t
(** A collector: the set of track buffers for one optimization. *)

val create : unit -> t

val buf : t -> track:int -> buf
(** Register a new buffer for [track]. Thread-safe. *)

val open_span :
  buf ->
  ?parent:span ->
  ?group:int ->
  ?args:(string * string) list ->
  cat:string ->
  string ->
  span

val close : ?outcome:string -> span -> unit
(** Stamp the end time (and outcome). Raises [Invalid_argument] if the
    span is already closed — a span closes exactly once. *)

val is_open : span -> bool

val id : span -> int

val spans : t -> span list
(** Every span from every track, ordered by start time (ties by id).
    Call only after all writers finished. *)

val total : t -> int
(** Number of spans recorded across all tracks. *)

val closed : t -> int
(** Number of {!close} calls that succeeded across all tracks. *)

val tracks : t -> int list
(** The registered track numbers, ascending. *)
