(** The routing daemon: speaks the same NDJSON protocol as
    {!Ovo_serve.Server} on the front, proxies solves to a fleet of
    [ovo serve] shards on the back.

    Placement: every solve is keyed on the canonical table digest
    ({!Shard_map}), so a shard's result cache sees {e all} repeats of
    an equivalence class instead of [1/N] of them — the fleet's
    aggregate hit rate matches a single daemon's.

    Failure semantics: a transport error on a shard leg marks the
    shard down ({!Health}), and the request — solves are pure, so
    re-dispatch is always safe — fails over to the next replica on the
    key's preference list with exponential backoff.  Only when every
    owning replica is unreachable does the client see a [shard_down]
    error.  [solve_many] scatters sub-batches to owning shards in
    parallel, gathers, and streams per-item replies back in item
    order; items on a shard that dies mid-batch fail over item-wise.

    Local ops ([ping], [stats], [metrics], [shutdown]) answer from the
    router itself; [stats]/[metrics] report {!Rstats} (per-shard
    counters, proxy latency, health), not any one shard. *)

type config = {
  listen : Ovo_serve.Protocol.addr;
  shards : Shard_map.shard list;
  replicas : int;
      (** length of each key's preference list (primary + failovers);
          default 2 — one shard can die without any [shard_down] *)
  health_interval : float;  (** seconds between health-probe sweeps *)
  connect_timeout : float;  (** bound on each shard connect *)
  backoff_ms : float;
      (** failover backoff: [backoff_ms * 2^k], capped at 2 s *)
  idle_timeout : float option;
      (** shut down after this long without a request (scripted runs) *)
  prom : Ovo_serve.Prom_export.sink option;
}

val default_config :
  listen:Ovo_serve.Protocol.addr -> shards:Shard_map.shard list -> config
(** Rendezvous hashing, 2 replicas, 2 s health interval, 1 s connect
    timeout, 50 ms backoff, no idle timeout, no Prometheus sink. *)

type t

val start : config -> t
(** Bind, spawn acceptor + health checker + exporters, return.
    Raises [Invalid_argument] on an empty or duplicate shard list and
    [Unix.Unix_error] if the listen address cannot be bound. *)

val stats_json : t -> Ovo_obs.Json.t
val prom_text : t -> string
val shutdown : t -> unit
val wait : t -> unit
(** Block until shutdown is initiated, then join the acceptor, close
    the listener, stop the health checker, flush the Prometheus sink,
    print the final stats line, and last unlink a Unix-socket path. *)

val run : config -> unit
(** [start], install SIGINT/SIGTERM handlers, print a ready line to
    stderr, and {!wait}. *)
