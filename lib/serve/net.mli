(** Socket plumbing shared by every listener and dialer in the serving
    stack ({!Server}, {!Client}, {!Prom_export}, the router), and the
    one NDJSON listener that {!Server} and the router both run. *)

val sockaddr_of : Protocol.addr -> Unix.socket_domain * Unix.sockaddr
(** Resolve an {!Protocol.addr} (hostname lookup included) to what
    [Unix.connect] / [Unix.bind] want. *)

val bind_listen : Protocol.addr -> Unix.file_descr
(** Bind and listen (backlog 64).  A stale Unix-socket file from a
    previous unclean exit is removed first; TCP sockets get
    [SO_REUSEADDR].  Raises [Unix.Unix_error] if the address cannot be
    bound. *)

(** {1 The NDJSON listener}

    A bound socket, its acceptor thread, the stop flag that shutdown
    sets, and the time of the last request (for the idle timeout). *)

type listener

val listen : ?idle_timeout:float -> Protocol.addr -> listener
(** Ignore SIGPIPE (a client vanishing mid-reply must surface as
    [EPIPE], not kill the process) and {!bind_listen}.  With
    [idle_timeout], shutdown starts after that many seconds without a
    connection or request. *)

val accept : listener -> (Unix.file_descr -> unit) -> unit
(** Start the acceptor thread: it hands every accepted connection to
    the handler on a thread of its own, until shutdown. *)

val serve_requests :
  listener ->
  ?on_bad_request:(unit -> unit) ->
  Unix.file_descr ->
  ((Protocol.reply -> unit) -> Protocol.request -> unit) ->
  unit
(** Run one connection: read request lines until the peer hangs up,
    skip blank lines, and pass each request to the handler with a
    function that writes one reply line.  An undecodable line gets a
    [bad_request] reply after [on_bad_request].  Closes the descriptor
    on return. *)

val shutdown : listener -> unit
(** Initiate shutdown (idempotent, non-blocking). *)

val stopping : listener -> bool

val stop_on_signals : listener -> unit
(** Make SIGINT and SIGTERM initiate shutdown. *)

val wait : listener -> drain:(unit -> unit) -> unit
(** Block until shutdown is initiated; then join the acceptor, close
    the listening socket, run [drain], and last remove a Unix-socket
    file, so its disappearance tells a client the process is done. *)
