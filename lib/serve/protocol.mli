(** Wire protocol of the ordering service.

    The transport is newline-delimited JSON (NDJSON): each request and
    each reply is one compact JSON object on one line, encoded and
    decoded with {!Ovo_obs.Json} — the same tree every other JSON in the
    project flows through.  The full schema (field tables, error codes,
    retry semantics) is documented in [doc/service.md]; this module is
    the single OCaml source of truth for it, shared by server, client,
    and tests. *)

type addr =
  | Unix_sock of string  (** path of a Unix-domain socket *)
  | Tcp of string * int  (** host, port *)

val addr_of_string : string -> (addr, [ `Msg of string ]) result
(** ["unix:/path"] or any string containing ['/'] is a Unix socket;
    ["host:port"] (numeric port, no slash) is TCP; ["tcp:host:port"]
    forces TCP. *)

val addr_to_string : addr -> string
(** Inverse of {!addr_of_string} (["unix:…"] / ["host:port"]). *)

type solve_params = {
  table : string;  (** truth table as a 0/1 string, length a power of two *)
  kind : Ovo_core.Compact.kind;  (** [Bdd] (default on the wire) or [Zdd] *)
  engine : Ovo_core.Engine.t;  (** backend for this job; default [Seq] *)
  deadline_ms : float option;  (** per-job deadline; [None] = no limit *)
}

type metrics_format =
  | Mjson  (** the aggregated-telemetry JSON object *)
  | Mprom  (** Prometheus text exposition format 0.0.4, as one string *)

type op =
  | Solve of solve_params
  | Solve_many of solve_params list
      (** batch solve: the server streams one reply per item over this
          connection, in item order, each tagged with its 0-based
          ["item"] index.  Every item keeps its own deadline and goes
          through the cache exactly like a lone [Solve]. *)
  | Stats  (** server report: uptime, queue, cache, latency percentiles *)
  | Metrics of metrics_format
      (** aggregated telemetry: windows, latency distributions, engine
          gauges; wire field ["format"], default ["json"] *)
  | Ping
  | Shutdown  (** graceful: drain queued jobs, then exit *)

type request = { id : int; op : op }
(** [id] is chosen by the client and echoed verbatim in the reply, so a
    client may pipeline requests on one connection. *)

type solve_reply = {
  digest : string;  (** canonical digest used as the cache key *)
  mincost : int;
  size : int;
  order : int array;  (** optimal ordering, root-first *)
  widths : int array;  (** [widths.(j)] = nodes at level [j] *)
  cached : bool;  (** answered from the result cache *)
  queue_ms : float;  (** time spent waiting in the job queue *)
  solve_ms : float;  (** time in canonicalize + cache probe + DP *)
}

type error_code =
  | Bad_request  (** malformed JSON, bad table, unknown op *)
  | Queue_full  (** backpressure — retry after [retry_after_ms] *)
  | Too_large  (** arity above the server's [max_arity] *)
  | Shutting_down  (** server is draining; no new jobs *)
  | Shard_down
      (** (router only) every replica owning this key is unreachable *)
  | Internal

val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code option

type response =
  | Ok_solve of solve_reply
  | Ok_stats of Ovo_obs.Json.t  (** the stats object, passed through *)
  | Ok_metrics of Ovo_obs.Json.t  (** the metrics object, passed through *)
  | Ok_prom of string  (** Prometheus exposition as one JSON string field *)
  | Pong
  | Bye  (** acknowledges [Shutdown] *)
  | Cancelled of string  (** deadline expired before/while solving *)
  | Error of {
      code : error_code;
      message : string;
      retry_after_ms : float option;  (** only with [Queue_full] *)
    }

type reply = {
  r_id : int;
  item : int option;
      (** set on each streamed [Solve_many] reply: the 0-based index of
          the batch item this reply answers; [None] everywhere else *)
  body : response;
}

val reply : ?item:int -> int -> response -> reply
(** [reply ?item r_id body] — construction shorthand. *)

val op_name : op -> string
(** The wire name of an operation (["solve"], ["solve_many"], …), which
    is also its endpoint label in stats and metrics. *)

(** {1 Codecs}

    [*_to_line] render one line {e without} the trailing newline;
    [*_of_line] accept a line with or without it.  Decoding is total:
    every failure comes back as [Error `Msg]. *)

val request_to_line : request -> string
val request_of_line : string -> (request, [ `Msg of string ]) result
val reply_to_line : reply -> string
val reply_of_line : string -> (reply, [ `Msg of string ]) result
