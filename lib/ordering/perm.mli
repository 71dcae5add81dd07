(** Permutation utilities shared by the ordering searches. *)

val identity : int -> int array

val iter_all : int -> (int array -> unit) -> unit
(** Calls the function on every permutation of [0..n-1] (the array is
    reused between calls; copy it if you keep it).  [n! ] iterations —
    guard the caller. *)

val random : Random.State.t -> int -> int array
(** Uniform random permutation (Fisher–Yates, one draw per position
    from the last down). *)

val move : int array -> from:int -> to_:int -> int array
(** [move p ~from ~to_] removes the element at index [from] and
    re-inserts it at index [to_], shifting the others; returns a fresh
    array. *)

val count : int -> float
(** [n!] as a float. *)
