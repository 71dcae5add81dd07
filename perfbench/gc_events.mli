(** GC pauses read from this process's OCaml [runtime_events] rings. *)

type sample = {
  pause_s : float;
      (** outermost runtime phases, summed over rings (domain-seconds) *)
  minors : int;  (** minor collections begun, summed over rings *)
  minor_words : int;  (** words allocated in minor heaps *)
  promoted_words : int;  (** words promoted by minor collections *)
  lost : int;  (** events overwritten before they were read *)
}

type t

val start : unit -> t
(** Start this process's rings and attach to them. *)

val paused : t -> (unit -> 'a) -> 'a
(** [paused t f] runs [f] with event collection paused, so untraced
    reference work runs as it would without [runtime_events]. *)

val take : t -> sample
(** {!poll}, return the totals since the previous [take], reset them. *)

val close : t -> unit
