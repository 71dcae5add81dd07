(** The exact workloads: [Fs.run] in this process, as [ovo optimize]
    runs it. *)

val loop :
  seconds:float -> 'a array -> (int -> 'a -> 'b) -> 'b list * float
(** [loop ~seconds inputs f] applies [f] to the inputs in order until
    [seconds] have passed (at least once, finishing the call in flight);
    the results and the elapsed time. *)

val setup_probe : t_entry:float -> Inputs.workload -> int -> float
(** A set-up alone — inputs and the first solve — timed from
    [t_entry]. *)

val untraced :
  t_entry:float ->
  seconds:float ->
  probes:(unit -> (float * float) list) ->
  Inputs.workload ->
  int ->
  Report.outcome * (string * float) list
(** Set up, solve distinct tables for [seconds], and return the
    end-to-end metrics.  [probes] times further set-ups in fresh
    processes and reads their peak RSS; [setup_s] and [peak_rss_mb] are
    the medians of those and this run's own set-up. *)

val traced :
  out_dir:string ->
  seconds:float ->
  Inputs.workload ->
  int ->
  Report.outcome * (string * float) list
(** Untraced solves (the overhead reference) alternating with traced
    ones; the per-layer metrics of the DP, GC, engine, pack and seeding
    layers.
    Writes the Chrome trace into [out_dir] and the per-k tables to
    standard error. *)
