(** Exporters for a recorded {!Trace.t}. *)

val chrome : Trace.t -> string
(** The Chrome [trace_event] document: an object with a [traceEvents]
    array of complete ("X"), instant ("i") and counter ("C") events,
    timestamps in microseconds relative to the tracer's epoch.  Loads in
    [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto}. *)

val write_chrome : out_channel -> Trace.t -> unit

val jsonl : Trace.t -> string
(** One self-describing JSON object per line, one line per event, in
    close order.  Schema documented in [doc/observability.md]. *)

val write_file : string -> Trace.t -> unit
(** Write to a file: JSON lines for a name ending in [.jsonl], else
    Chrome [trace_event] JSON — the rule behind every [--trace] flag. *)

val summary : Trace.t -> string
(** Human text profile: wall time, per-name span aggregates, the 5
    slowest individual spans, and Gc allocation totals over top-level
    spans. *)
