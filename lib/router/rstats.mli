(** Router-side telemetry on the shared {!Ovo_metrics.Registry}
    vocabulary — the router's counterpart of the daemon's
    {!Ovo_serve.Stats}.

    Families (all pre-registered at startup so exposition order never
    depends on traffic): [ovo_router_requests_total{endpoint}],
    [ovo_router_shard_requests_total{shard}],
    [ovo_router_proxy_duration_ms{shard}] (histogram),
    [ovo_router_shard_up{shard}] (gauge),
    [ovo_router_retries_total], [ovo_router_shard_down_total],
    [ovo_router_items_total], [ovo_router_shards_up],
    [ovo_router_uptime_seconds]. *)

type t

val create : shards:string list -> unit -> t
(** Timed by {!Ovo_obs.Trace.monotonic}. *)

val record_request : t -> endpoint:string -> unit
val record_proxy : t -> shard:string -> ms:float -> unit
(** One proxied round-trip to [shard] took [ms]. *)

val record_retry : t -> unit
val record_shard_down : t -> unit
val record_items : t -> int -> unit
val set_shard_up : t -> shard:string -> bool -> unit

val refresh : t -> unit
(** Recompute the uptime and shards-up gauges (called before any
    exposition, and by the export ticker). *)

val stats_json : t -> health:(string * bool * float) list -> Ovo_obs.Json.t
(** The router's [stats]-op reply; [health] is
    {!Health.snapshot}-shaped. *)

val prom : t -> string
(** Prometheus text exposition of the router registry. *)
