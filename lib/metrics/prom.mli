(** Prometheus text exposition format 0.0.4 for a {!Registry}.

    One [# HELP] (when non-empty) and one [# TYPE] comment per metric
    name, then one sample line per label set.  Histograms follow the
    native convention: cumulative [<name>_bucket{le="..."}] series at
    the octave boundaries of the {!Histo} ladder (every 8th internal
    bucket — exact, because the fine buckets nest in the coarse ones),
    a ["+Inf"] bucket, and [<name>_sum] / [<name>_count].

    Label {e values} are escaped (backslash, double quote, newline);
    metric and label
    names are the caller's responsibility (everything this project
    registers is a static identifier).  Output is deterministic for a
    given registry: names in first-seen order, label sets in
    registration order, no timestamps. *)

val escape_label : string -> string
(** Contents of a label value between the quotes: backslash, double
    quote and newline become their two-character escapes. *)

val render : Registry.t -> string
(** The full exposition, newline-terminated. *)
