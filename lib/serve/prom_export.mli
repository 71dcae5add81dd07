(** Prometheus exposition exporter shared by the daemon and the router.

    One {!t} owns every exporter thread for a process: the 1 s ticker
    that keeps gauges fresh (and atomically rewrites a file sink via
    tmp + rename), and the one-shot HTTP scrape responder for an
    address sink.  Extracted from {!Server} so both it and the router
    get identical — and identically shutdown-safe — export behaviour.

    The shutdown contract is the point: {!stop_and_flush} {e joins} the
    ticker and scrape threads {e before} writing the final snapshot, so
    after it returns the file is final and no thread of this exporter
    is left running.  (The pre-extraction server had to re-state that
    join-before-write ordering inline in [wait]; now it is structural
    and regression-tested.) *)

type sink =
  | Prom_file of string
      (** rewrite the exposition to this path (tmp + rename, so readers
          never see a torn file) every period and once at shutdown *)
  | Prom_addr of Protocol.addr
      (** serve the exposition over one-shot HTTP responses on this
          address — enough for a Prometheus scrape loop or [curl] *)

val sink_of_string : string -> (sink, [ `Msg of string ]) result
(** A spec containing ['/'] is a file path; a parseable [host:port] is
    a scrape address; a bare word is a file in the current directory. *)

val sink_to_string : sink -> string

type t

val start :
  sink:sink option ->
  render:(unit -> string) ->
  refresh:(unit -> unit) ->
  unit ->
  t
(** Spawn the 1 s ticker and, for an address sink,
    bind and spawn the scrape responder.  [render] must refresh live
    gauges and return the full exposition; [refresh] is the cheap
    gauge-only refresh the ticker uses when there is no file to write.
    With [sink = None] the ticker still runs [refresh] so in-band
    [metrics] replies never read stale gauges. *)

val stop_and_flush : t -> unit
(** Stop and join every exporter thread, close the scrape listener,
    then write the final file snapshot.  Blocking, idempotent in
    effect; after return the sink is quiescent. *)
