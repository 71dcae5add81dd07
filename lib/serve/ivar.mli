(** A write-once synchronisation cell: the hand-off between a
    connection thread (which waits for its request's outcome) and the
    worker that computes it. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** Wakes every {!read}er.  A second fill is ignored (first writer
    wins), so racing a worker result against a shutdown notice is
    safe. *)

val read : 'a t -> 'a
(** Block until filled. *)
