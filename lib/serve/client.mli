(** Minimal blocking client for the NDJSON protocol — used by
    [ovo submit], [ovo bench serve], the router's shard legs, the bench
    harness and the end-to-end tests. *)

type t

val connect : ?timeout:float -> Protocol.addr -> t
(** Open a connection.  [timeout] (seconds) bounds the connection
    attempt; without it a TCP connect can block for minutes.  Raises
    [Unix.Unix_error] on failure. *)

val connect_retry : ?timeout:float -> ?retries:int -> Protocol.addr -> t
(** {!connect}, retried up to [retries] extra times on transient
    failures (refused, reset, missing socket file, timeout,
    unreachable) with exponential backoff starting at 50 ms
    (doubling, capped at 2 s) — so a client survives a
    router or shard restart instead of failing on the first refused
    connection. *)

val send : t -> Protocol.request -> unit
(** Write one request line.  Raises [Sys_error] on a broken pipe. *)

val recv : t -> (Protocol.reply, [ `Msg of string ]) result
(** Read the next reply line.  With [Solve_many], call once per item. *)

val roundtrip : t -> Protocol.request -> (Protocol.reply, [ `Msg of string ]) result
(** [send] then [recv] — the one-reply common case. *)

val close : t -> unit

val with_conn :
  ?timeout:float ->
  ?retries:int ->
  Protocol.addr ->
  (t -> 'a) ->
  'a
(** Connect (with optional retry policy), run, always close. *)

val ping : ?timeout:float -> Protocol.addr -> bool
(** Connect (bounded by [timeout], default 1 s), send [ping], and say
    whether a [pong] came back; any failure is [false]. *)
