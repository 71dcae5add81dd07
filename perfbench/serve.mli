(** The [serve-mixed] workload: the daemon's request pipeline
    ({!Ovo_serve.Solver.solve} over an {!Ovo_serve.Cache}) called in this
    process, one request at a time. *)

val setup_probe : t_entry:float -> int -> float
(** A set-up alone — schedule, empty cache, warm-up requests — timed
    from [t_entry]. *)

val untraced :
  t_entry:float ->
  seconds:float ->
  probes:(unit -> (float * float) list) ->
  int ->
  Report.outcome * (string * float) list
(** Set up, answer the schedule for [seconds], and return the end-to-end
    metrics.  [setup_s] is the median of this run's set-up and the
    [probes] in fresh processes; [peak_rss_mb] is this process's peak
    after the timed phase. *)

val traced :
  out_dir:string -> seconds:float -> int -> Report.outcome * (string * float) list
(** Untraced requests (the overhead reference) alternating with traced
    ones; the serve, DP and GC layer metrics, the stage breakdown on
    standard error, and the Chrome trace in [out_dir]. *)
