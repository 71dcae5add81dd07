(** A bounded, closeable, blocking job queue — the admission point of
    the ordering service.

    Producers never block: {!try_push} either enqueues or reports
    [`Full], which the server turns into a reject-with-retry-after
    response (backpressure instead of unbounded buffering).  Consumers
    ({!Server} worker threads) block in {!pop} until an element or
    closure arrives.  {!close} starts the graceful drain: pushes are
    refused from then on, but already-queued elements keep coming out of
    {!pop} until the queue is empty, after which every consumer gets
    [None] — so no accepted job is ever dropped by a shutdown. *)

type 'a t

exception Closed
(** Raised by {!try_push} after {!close}. *)

val create : cap:int -> 'a t
(** [cap] must be positive. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Current depth (racy by nature; exact under the caller's own
    serialisation). *)

val try_push : 'a t -> 'a -> [ `Pushed | `Full ]
(** Non-blocking; [`Full] when the queue holds [cap] elements.  Raises
    {!Closed} once the queue was closed. *)

val pop : 'a t -> 'a option
(** Block until an element is available ([Some x]) or the queue is both
    closed and drained ([None]). *)

val close : 'a t -> unit
(** Idempotent.  Wakes every blocked {!pop}. *)
