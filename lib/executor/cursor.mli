(** The Volcano iterator interface: every query processing algorithm is
    an operator with open/next/close, consuming and producing streams of
    tuples (Graefe's Volcano execution model, which this optimizer was
    built to feed). *)

type t = {
  schema : Relalg.Schema.t;  (** output schema of the stream *)
  open_ : unit -> unit;
      (** prepare the operator for producing tuples; called exactly once
          before the first [next] *)
  next : unit -> Relalg.Tuple.t option;
      (** deliver the next output tuple, or [None] at end of stream *)
  close : unit -> unit;  (** release operator state after the last [next] *)
}

val of_array : Relalg.Schema.t -> Relalg.Tuple.t array -> t
(** A cursor delivering the array's tuples in order; [open_] rewinds to
    the first tuple. *)

val drain : t -> Relalg.Tuple.t array * int
(** Drive a cursor to exhaustion (open, drain, close) into a buffer
    from [Array_pool.Rows]: the buffer and the number of rows at its
    start. The caller gives the buffer back. *)

val to_array : t -> Relalg.Tuple.t array
(** Drive a cursor to exhaustion: open, drain, close. *)

val iter : (Relalg.Tuple.t -> unit) -> t -> unit
(** Apply [f] to every tuple of the stream: open, drain, close. *)

val map_stream : Relalg.Schema.t -> (Relalg.Tuple.t -> Relalg.Tuple.t) -> t -> t
(** One-in one-out streaming operator over an input cursor. *)

val filter_stream : (Relalg.Tuple.t -> bool) -> t -> t
(** Streaming selection: deliver only the tuples satisfying the
    predicate; open/close are the input's. *)

val observed : ?at_end:(unit -> unit) -> (Relalg.Tuple.t -> unit) -> t -> t
(** Instrumentation point of the runtime feedback loop: a pass-through
    cursor invoking [f] on every tuple delivered by [next], and [at_end]
    each time [next] reports end of stream. A consumer that stops
    pulling early (a merge join exhausting its other input) never
    triggers [at_end] — that is how the feedback loop distinguishes a
    true cardinality from a lower bound. The wrapped cursor's data flow
    is unchanged — same schema, same tuples, same open/close — so
    executing an instrumented plan is bit-identical to executing the
    plan itself. [f] may raise (the escape hatch aborts a run this
    way); the exception propagates out of [next]. *)
