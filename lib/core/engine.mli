(** Execution engine for the subset dynamic programs — sequential, or
    domain-parallel on OCaml 5 runtimes.

    The Friedman–Supowit DP is embarrassingly parallel within one
    cardinality layer: every [K] with [|K| = k] depends only on the
    frozen layer [k-1], so the subsets of a layer can be split across
    {!Domain.t}s with no synchronisation beyond one barrier per layer.
    This module captures that split once: a sweep opens a {!pool} with
    {!with_pool} and runs each layer as one {!map}.  {!Subset_dp} and
    everything above it take an engine parameter: {!Fs} and {!Shared}
    on top of it, and the quantum entry points.

    {!Par} is deterministic: every result lands at its own index, so a
    parallel run produces bit-identical tables, orderings and metrics to
    a sequential one. *)

type t =
  | Seq  (** single-domain, the default everywhere *)
  | Par of { domains : int }
      (** split each DP layer across [domains] domains, the calling
          one included; [domains <= 0] means
          {!Domain.recommended_domain_count} *)

val par : ?domains:int -> unit -> t
(** [par ()] uses the recommended domain count at run time. *)

val domain_count : t -> int
(** The number of domains the engine will use at most (1 for {!Seq});
    resolves [domains <= 0] and clamps to a safe bound.  A {!pool} uses
    fewer when its widest job has fewer items. *)

val to_string : t -> string
(** ["seq"], ["par"] or ["par:N"]. *)

val of_string : string -> (t, [ `Msg of string ]) result
(** Inverse of {!to_string}; accepts ["seq"], ["par"], ["par:N"]. *)

type pool
(** The participants of one sweep: the calling domain (participant 0)
    plus [size pool - 1] worker domains. *)

val with_pool :
  ?trace:Ovo_obs.Trace.t -> t -> width:int -> (pool -> 'a) -> 'a
(** [with_pool t ~width f] runs [f] with a pool that lives exactly as
    long as the call.  Under {!Par} it spawns
    [min (domain_count t) width - 1] worker domains once (never fewer
    than zero), where [width] is the largest number of items any {!map}
    of the pool will be given — the widest layer of a DP sweep.  {!Seq}
    spawns nothing.  Workers sleep on a condition variable between jobs.

    However [f] exits — a result, or an exception such as
    {!Cancel.Cancelled} or {!Bound.Pruned_out} raised between two
    {!map}s — every worker is stopped and joined before [with_pool]
    returns or re-raises, so no domain outlives its sweep.  Pools are
    never shared: concurrent sweeps (the systhreads of [ovo serve]) each
    own theirs.

    With a recording [trace] (default {!Ovo_obs.Trace.null}), every
    participant of a {!Par} pool records one span per {!map} (category
    ["engine"], named ["domain w"], [w = 0] being the caller) whose args
    carry [worker], the number of [items] it processed and its own
    metrics — the per-domain attribution of a {!Par} layer.  The args of
    the domain spans of one {!map} sum to the merged metrics delta, even
    when a single participant took every item.  {!Seq} records no
    domain spans. *)

val size : pool -> int
(** Participants, the calling domain included (1 for {!Seq}). *)

val map :
  ?cancel:Cancel.t ->
  pool ->
  metrics:Metrics.t ->
  (Metrics.t -> int -> 'b) ->
  int ->
  'b array
(** [map pool ~metrics f n] is [[| f m 0; …; f m (n-1) |]]: one job
    over the items [0 … n-1].  Under {!Seq} it is [Array.init] on the
    calling domain with [m = metrics].  Under {!Par} every participant
    claims chunks of consecutive items from a shared atomic counter (about
    eight chunks per participant, at least one item each) and counts into
    a scratch {!Metrics.t} of its own; the scratches are
    {!Metrics.merge_into}d [metrics] in participant order once every
    participant has finished the job.  Each result lands at its own
    index, so the output — like the merged counters — is the same
    whichever participant computed which item.

    [f] must be safe to run concurrently against shared read-only data:
    the DP guarantees this because a layer only reads its predecessor.
    [f] may also read shared atomics frozen for the call's duration —
    the branch-and-bound sweep hands workers an incumbent snapshot that
    only the calling domain updates, between [map] calls, so pruning
    decisions stay deterministic.

    If [f] raises on some participant, the others stop at their next
    chunk, and once all have finished the job the exception is re-raised
    on the calling domain with its backtrace (the lowest-numbered
    participant's, if several raised); the pool stays usable.

    [cancel] (default {!Cancel.never}) is checked once on entry, before
    the job is published: a fired token raises {!Cancel.Cancelled} on
    the calling domain, so a DP sweep aborts between layers and a {!Par}
    job is never torn down mid-chunk. *)
