(** Order statistics for benchmark timings. *)

val rank : p:int -> int -> int
(** [rank ~p n] is the 1-based nearest rank [ceil (p·n/100)] of the
    [p]-th percentile among [n > 0] samples (at least 1). *)

val nearest_rank : p:int -> float list -> float
(** The [p]-th nearest-rank percentile.  Raises [Invalid_argument] on an
    empty list. *)

val beyond : p:int -> int -> int
(** Number of samples above the [p]-th percentile's rank among [n]. *)

val reportable : p:int -> int -> bool
(** Whether at least ten of [n] samples lie beyond the [p]-th
    percentile — the rule for quoting a tail percentile. *)

val median : float list -> float
(** The median (mean of the middle pair for an even count).  Raises
    [Invalid_argument] on an empty list. *)

val median_or_zero : float list -> float
(** {!median}, or [0.] for no samples. *)
