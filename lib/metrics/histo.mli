(** Log-bucketed, mergeable histograms — constant-time recording,
    O(buckets) quantile estimation.

    The bucket boundaries form a geometric ladder: bucket [i] (for
    [1 <= i <= num_core]) covers [(min_bound·g^(i-1), min_bound·g^i]]
    with growth [g = 2^(1/8)], so 256 core buckets span
    [min_bound .. min_bound·2^32] — with [min_bound = 1e-3] (for values
    in milliseconds) that is one microsecond to over an hour.  Bucket
    [0] catches everything at or below [min_bound] (including zero and
    negatives), the last bucket everything above the ladder.

    Quantile estimates return the geometric midpoint of the bucket
    holding the nearest-rank sample, clamped to the observed
    [min..max], so the relative error against an exact nearest-rank
    over the raw samples is bounded by [sqrt g - 1 = 2^(1/16) - 1]
    ({!max_rel_error}, about 4.4%) for values inside the ladder —
    [test/test_metrics.ml] qchecks this bound and CI gates the measured
    error at 10%.

    {!record} touches one array cell and three scalar fields and is
    written for a single writer; under the systhread model concurrent
    writers can lose a [sum] update but never corrupt memory, and
    counts stay exact (int-array increments have no safepoint).
    Cross-thread aggregation is meant to go through {!snapshot} and
    {!merge} instead: shards merge without any lock on the record
    path. *)

val num_core : int
(** Core (laddered) buckets: 256. *)

val min_bound : float
(** Upper bound of the underflow bucket (1e-3). *)

val bucket_upper : int -> float
(** Inclusive upper bound of bucket [i]; [infinity] for the overflow
    bucket. *)

val index : float -> int
(** The bucket a value lands in ([0 .. num_core + 1]).  NaN and
    non-positive values land in bucket 0. *)

val max_rel_error : float
(** [2^(1/16) - 1] — the worst-case relative error of {!quantile}
    against exact nearest-rank, for values inside the ladder. *)

type t

val create : unit -> t
val record : t -> float -> unit
val count : t -> int
val sum : t -> float

type snapshot = {
  counts : int array;
      (** per-bucket tallies, length [num_core + 2] (underflow and
          overflow included) *)
  count : int;
  sum : float;
  vmin : float;  (** [infinity] when empty *)
  vmax : float;  (** [neg_infinity] when empty *)
}

val snapshot : t -> snapshot
val empty : snapshot

val merge : snapshot -> snapshot -> snapshot
(** Pointwise: associative and commutative (float [sum] up to FP
    rounding; everything else exactly). *)

val quantile : snapshot -> float -> float option
(** [quantile s q] estimates the [q]-quantile (nearest-rank convention,
    [q] clamped to [0..1]); [None] when empty. *)

val mean : snapshot -> float option
