(** Export a span collector in the Chrome trace event format, loadable
    in chrome://tracing or {{:https://ui.perfetto.dev}Perfetto}. Each
    buffer label ({!Trace.buf}'s [track]) becomes one thread row
    ([tid]): 0 is the search engine. Spans are
    complete ([ph = "X"]) events with microsecond timestamps relative
    to the earliest span; goal outcomes and span args land in [args]. *)

val to_json : Trace.t -> Json.t
(** Object form: [{"traceEvents": [...], "displayTimeUnit": "ms"}].
    Spans still open at export time (an abandoned or paused run) are
    emitted with the latest end time seen, with [args.open = true]. *)

val write : string -> Trace.t -> unit
(** Write {!to_json} to a file. *)
