(** The canonical result cache.

    Solve results are stored under [(Truthtable.digest, kind)] — the
    digest of the {e canonical} form of the input function — so a repeat
    of the same request {e and} any permutation-relabeled variant of it
    hit the same entry.  Because the server always solves the canonical
    table and maps the ordering back through the canonicalizing
    permutation, a cache hit returns byte-identical results to a fresh
    solve.

    Digests are paired with an equality check on the stored canonical
    table ({!find} takes the probe's canonical table), so a hash
    collision degrades to a miss, never to a wrong answer.

    All operations are serialised by an internal mutex; hit/miss/
    eviction counters are maintained for the [stats] endpoint. *)

type entry = {
  canon : Ovo_boolfun.Truthtable.t;  (** canonical table that was solved *)
  mincost : int;
  size : int;
  canon_order : int array;
      (** optimal ordering of the {e canonical} table, read-last-first
          (the {!Ovo_core.Fs.result} convention); callers map it back to
          the request's variables through their own permutation *)
  widths : int array;
}

type t

val create :
  ?trace:Ovo_obs.Trace.t ->
  ?persist:
    (digest:string -> kind:Ovo_core.Compact.kind -> entry -> unit) ->
  cap:int ->
  unit ->
  t
(** LRU capacity in entries; [cap] must be positive.  A recording
    [trace] (default {!Ovo_obs.Trace.null}) receives a
    [cache.collision] counter each time equality verification rejects a
    digest match.  [persist] is called — outside the cache lock — after
    every {!add}; the server points it at
    {!Ovo_store.Result_store.append} when a [--store] is configured. *)

val find :
  t ->
  digest:string ->
  kind:Ovo_core.Compact.kind ->
  canon:Ovo_boolfun.Truthtable.t ->
  entry option
(** Probe (and touch) the cache.  Returns the entry only when the stored
    canonical table equals [canon]; a digest collision counts as a
    miss (and a collision). *)

val mem :
  t ->
  digest:string ->
  kind:Ovo_core.Compact.kind ->
  canon:Ovo_boolfun.Truthtable.t ->
  bool
(** Whether {!find} would hit, counting neither a hit nor a miss.  It
    touches the entry as {!find} does, so an answer admitted on the
    strength of it is the least likely to be evicted before its job
    reads it. *)

val add :
  t -> digest:string -> kind:Ovo_core.Compact.kind -> entry -> unit
(** Insert and, when configured, persist. *)

val warm :
  t -> digest:string -> kind:Ovo_core.Compact.kind -> entry -> unit
(** Insert {e without} persisting — for warm-loading entries that came
    from the store in the first place. *)

val capacity : t -> int
val length : t -> int
val hits : t -> int
val misses : t -> int

val collisions : t -> int
(** Digest matches rejected by the equality check. *)

val evictions : t -> int

val hit_rate : t -> float
(** [hits / (hits + misses)]; [0.] before any probe. *)

val to_json : t -> Ovo_obs.Json.t
(** Deterministic field order: capacity, length, hits, misses,
    collisions, evictions, hit_rate. *)
