(** Server-side telemetry: the typed {!Ovo_metrics.Registry} behind the
    [stats] and [metrics] endpoints, the Prometheus exposition and the
    final report printed at shutdown.

    Everything lifetime lives in the registry — per-endpoint request
    counters and log-bucketed latency histograms, outcome tallies,
    solve-duration and queue-wait histograms, engine gauges (DP layer
    progress, states pruned), GC/process gauges.  On top
    sit rolling {!Ovo_metrics.Window}s for the "right now" numbers:
    request rates over the last 1/10/60 s and the cache hit-rate over
    the last minute.

    This replaces the earlier per-endpoint sample rings, which sorted
    under the server mutex on every stats call and whose
    subtract-on-evict running sum drifted over long uptimes: histogram
    recording is constant-time and lock-free, quantiles are O(buckets)
    estimates (within {!Ovo_metrics.Histo.max_rel_error} of exact
    nearest-rank), and sums are add-only, so the mean is exact up to
    float rounding no matter the uptime ([test/test_metrics.ml] pins
    the regression). *)

type t

val create : unit -> t
(** Timed by {!Ovo_obs.Trace.monotonic}.  The five protocol endpoints
    (ping, solve, stats, metrics, shutdown) are pre-registered so the
    exposition's order does not depend on traffic. *)

val record : t -> endpoint:string -> ms:float -> unit
(** One completed request on [endpoint] with end-to-end handling
    latency [ms]; also feeds the request-rate windows. *)

val record_outcome :
  t -> [ `Ok | `Cached | `Cancelled | `Rejected | `Error ] -> unit
(** Outcome tally for solve requests.  [`Cached] implies [`Ok] —
    record exactly one outcome per request. *)

val uptime_s : t -> float

val avg_ms : t -> endpoint:string -> float
(** Lifetime mean latency; [0.] with no samples.  Exact (add-only sum),
    unlike the old ring's drifting running sum. *)

val avg_ms_opt : t -> endpoint:string -> float option
(** As {!avg_ms} but [None] with no samples — so a caller can tell "no
    data yet" from "instantaneous". *)

(** {2 Solve-path instruments} *)

val record_solve_ms : t -> float -> unit
(** Duration of one completed (non-cached) or cached solve, measured in
    the worker — the distribution [retry_after_ms] is estimated from. *)

val solve_ms_p50 : t -> float option
(** Median observed solve duration; [None] before the first solve —
    the server's backpressure hint falls back to a flagged fixed
    default only in that truly-cold case. *)

val record_queue_wait_ms : t -> float -> unit

val note_probe : t -> hit:bool -> unit
(** One cache probe, feeding the 60 s hit-rate window. *)

val note_layer : t -> layer:int -> states:int -> unit
(** Engine progress gauges: the DP cardinality layer that just
    completed and its surviving state count (last solve wins — a fleet
    dashboard reads these as "what is the engine chewing on"). *)

val add_pruned : t -> int -> unit

val worker_busy : t -> unit
val worker_idle : t -> unit

val sample_gc : t -> unit
(** Sample [Gc.quick_stat] (heap words, major collections) and, on
    Linux, the process resident set from [/proc/self/statm] into
    gauges.  Called by the server's 1 s ticker and before every
    exposition. *)

val set_live :
  t ->
  queue_depth:int ->
  queue_cap:int ->
  workers:int ->
  cache_entries:int ->
  cache_hits:int ->
  cache_misses:int ->
  cache_evictions:int ->
  unit
(** Refresh the point-in-time gauges (queue, workers, cache mirror,
    uptime) the exposition renders — called right before
    {!metrics_json} or {!prom}. *)

(** {2 Renderings} *)

val to_json :
  ?store:Ovo_obs.Json.t ->
  t ->
  queue_depth:int ->
  queue_cap:int ->
  workers:int ->
  cache:Ovo_obs.Json.t ->
  Ovo_obs.Json.t
(** The [stats] reply body — same shape as always: uptime_s, queue
    {depth, cap}, workers, outcomes {ok, cached, cancelled, rejected,
    errors}, cache (as given), store ([null] without persistence),
    endpoints (sorted by name, each with count, avg_ms, p50_ms, p90_ms,
    p99_ms; only endpoints with traffic appear). *)

val metrics_json : t -> Ovo_obs.Json.t
(** The [metrics] reply body (schema in doc/service.md): uptime_s,
    windows (rps over 1/10/60 s, 60 s cache hit rate), queue, workers,
    outcomes, latency_ms (solve, queue_wait and per-endpoint request
    distributions), engine, gc.  Reads the gauges {!set_live} filled. *)

val prom : t -> string
(** Prometheus text-format 0.0.4 exposition of the whole registry. *)
