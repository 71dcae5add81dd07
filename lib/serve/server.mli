(** The ordering daemon: socket listener, connection threads, bounded
    job queue, worker pool, result cache, and graceful shutdown.

    Thread topology: the {!Net} listener's acceptor thread multiplexes
    the listening socket with a [select] timeout so it can notice the
    stop flag; each
    accepted connection gets its own thread that parses NDJSON requests,
    admits solve jobs to the {!Bqueue} (rejecting with [queue_full] +
    [retry_after_ms] under backpressure) and blocks on the job's
    {!Ivar} for the reply; [workers] pool threads pop jobs and run
    {!Solver.solve} on the configured engine, honouring each job's
    deadline via {!Ovo_core.Cancel}.

    Shutdown (a [shutdown] request, {!shutdown}, or — under {!run} —
    SIGINT/SIGTERM) is graceful: the acceptor stops, the queue closes
    (late solves get [shutting_down]), already-accepted jobs drain
    through the workers, their replies are flushed, and a final stats
    report (plus the trace file, if recording) is written. *)

type prom_sink = Prom_export.sink =
  | Prom_file of string
  | Prom_addr of Protocol.addr
      (** {!Prom_export.sink}, re-exported so a config can name its
          constructors. *)

type config = {
  listen : Protocol.addr;
  workers : int;  (** worker pool size; [<= 0] means 1 *)
  queue_cap : int;  (** bounded queue depth before backpressure *)
  cache_cap : int;  (** LRU result-cache entries *)
  max_arity : int;  (** solve requests above this get [too_large] *)
  idle_timeout : float option;
      (** seconds without any request before the server shuts itself
          down — a safety net for scripted runs *)
  trace_file : string option;
      (** record every request's spans; written at shutdown
          ([.jsonl] → JSON-lines, else Chrome trace_event — the same
          rule as the CLI [--trace]) *)
  store_dir : string option;
      (** durable result store directory ({!Ovo_store.Result_store}):
          opened and recovered at {!start}, its surviving entries
          warm-loaded into the cache, every cache insert appended to its
          WAL, synced and closed at shutdown.  [None] (the default) runs
          purely in memory. *)
  store_fsync : Ovo_store.Rlog.fsync;
      (** fsync policy for the store's WAL (default
          {!Ovo_store.Rlog.Never}; appends survive process death
          regardless — this only matters for machine crashes) *)
  mem_budget : int option;
      (** byte cap on one exact solve: under the [`Exact] orderer a
          request whose {!Ovo_core.Membudget.estimate} (the DP's two
          layer buffers plus its packed table) exceeds it is refused at
          admission with [too_large] ({!Solver.parse_table}).  [None]
          (the default) admits every arity up to [max_arity]. *)
  prune : bool;
      (** run each cache-miss solve as an exact branch-and-bound seeded
          by [Ovo_learn.Scorer.seeded_bound], the scored incumbent
          tightened by sifting ({!Solver.solve}): identical answers,
          fewer states, and deadline-cancelled replies carry the best-so-far
          [(lower, incumbent)] bound pair in their message.  Default
          off. *)
  orderer : [ `Exact | `Scored ];
      (** [`Exact] (the default) runs the exact DP on every cache miss.
          [`Scored] answers misses with the [ovo.learn] scored static
          ordering instead: a valid ordering and its achievable cost in
          heuristic time, but not a proven optimum — so scored answers
          are never inserted into the cache or the durable store, and
          exact cached results still win on a probe hit. *)
  access_log : string option;
      (** CRC-framed structured access log ({!Access_log}): one entry
          per solve request with digest, outcome, queue wait, solve
          duration, cache hit and bound window.  Reopening recovers a
          torn tail exactly like the result store.  [None] (default)
          logs nothing. *)
  prom : prom_sink option;
      (** Prometheus exposition sink, refreshed by the 1 s ticker
          (file) or served per scrape (address).  [None] (default)
          exports nothing — the [metrics] op still answers. *)
  telemetry : bool;
      (** per-request instrument updates (latency histograms, windows,
          engine gauges).  Default on; [false] exists so the benchmark
          can measure the instrumented/uninstrumented overhead ratio.
          Outcome counters and the [stats] endpoint stay on
          regardless. *)
  shard_id : string option;
      (** fleet identity ([ovo serve --shard-id]): stamped on every
          access-log entry so fleet-wide logs can be merged and
          attributed.  [None] (the default) leaves entries in the
          pre-fleet wire format. *)
}

val default_config : listen:Protocol.addr -> config
(** 2 workers, queue 64, cache 256, max arity 16, no idle timeout, no
    trace, no store, no memory budget, no pruning, exact orderer, no
    access log, no Prometheus sink, telemetry on, no shard id. *)

type t

val start : config -> t
(** Bind, listen, spawn acceptor and workers, return immediately.
    Raises [Unix.Unix_error] if the address cannot be bound (a stale
    Unix-socket file from a previous run is removed first). *)

val stats_json : t -> Ovo_obs.Json.t
(** Live snapshot — what the [stats] endpoint returns. *)

val metrics_json : t -> Ovo_obs.Json.t
(** Aggregated telemetry — what the [metrics] endpoint returns
    ({!Stats.metrics_json} after refreshing the live gauges). *)

val prom_text : t -> string
(** The Prometheus exposition — what [--prom] exports and what the
    [metrics] op answers in [prometheus] format. *)

val shutdown : t -> unit
(** Initiate graceful shutdown (idempotent, non-blocking); {!wait}
    performs the actual drain. *)

val wait : t -> unit
(** Block until shutdown is initiated, then drain and tear down: join
    the acceptor and workers, flush pending replies, close the listener,
    write the trace file, print the final stats line to stderr, and
    last unlink a Unix-socket path. *)

val run : config -> unit
(** [start], install SIGINT/SIGTERM handlers that {!shutdown}, print a
    ready line to stderr, and {!wait}. *)
