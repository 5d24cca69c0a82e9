(** Monotonic time source for the observability layer. Span timestamps
    and service latencies must never run backwards, so everything here
    reads CLOCK_MONOTONIC (via the bechamel stub), not the wall clock. *)

val now_ns : unit -> int64
(** Monotonic nanoseconds since an arbitrary epoch. *)

val now_int : unit -> int
(** {!now_ns} collapsed to an int (63 bits of nanoseconds), read
    without allocating: for timestamps taken on every engine task. *)

val us_of_ns : int64 -> float

val span_ms : since:int64 -> int64 -> float
(** [span_ms ~since now] — elapsed milliseconds between two readings. *)
