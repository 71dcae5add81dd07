(** The per-job solve pipeline: canonicalize → digest → cache probe →
    (on miss) exact DP on the canonical table → map the ordering back to
    the request's variable numbering.

    Solving the {e canonical} table — never the raw request — is what
    makes cache hits exact: a hit replays the stored canonical result
    through the request's own permutation, so hit and miss produce
    identical orderings, widths and costs for equal (or
    permutation-equivalent) inputs. *)

type solved = {
  digest : string;
  mincost : int;
  size : int;
  order : int array;
      (** optimal ordering, root-first, in the request's variable
          numbering *)
  widths : int array;  (** [widths.(j)] = nodes labeled [order.(j)] *)
  cached : bool;  (** answered from the cache (no DP run) *)
}

val parse_table :
  ?mem_budget:int ->
  ?cache:Cache.t * Ovo_core.Compact.kind ->
  max_arity:int ->
  string ->
  (Ovo_boolfun.Truthtable.t, [ `Bad of string | `Too_large of string ]) result
(** Validate a wire table, in this order: length a power of two,
    characters ['0'|'1'] (both [`Bad]), arity at most [max_arity], and,
    with [mem_budget], an exact solve's {!Ovo_core.Membudget.estimate}
    within that many bytes ([`Too_large] naming the estimate otherwise).
    Runs at admission, before any queueing, so a solve that cannot fit
    is refused up front.  An over-budget table whose answer [cache]
    holds under the given kind ({!Cache.mem}) is admitted: a hit runs no
    DP.  Only such tables are canonicalized here. *)

val solve :
  ?trace:Ovo_obs.Trace.t ->
  ?prune:bool ->
  ?orderer:[ `Exact | `Scored ] ->
  ?stats:Stats.t ->
  cache:Cache.t ->
  cancel:Ovo_core.Cancel.t ->
  engine:Ovo_core.Engine.t ->
  kind:Ovo_core.Compact.kind ->
  Ovo_boolfun.Truthtable.t ->
  (solved, [ `Cancelled of (int * int) option ]) result
(** [cancel] is checked before canonicalization and polled between DP
    layers inside {!Ovo_core.Fs.run}; a fired token yields
    [Error (`Cancelled bounds)] — no exception escapes.  With a
    recording [trace], the pipeline records spans [serve.canon],
    [serve.cache_probe] and (on a miss) [serve.seed] / [serve.solve],
    category ["serve"].

    [prune] (default off) seeds each cache-miss solve with a scored
    incumbent refined by sifting ({!Ovo_learn.Scorer.seeded_bound}) and
    runs the DP as an exact branch-and-bound.  The answer is
    bit-identical; additionally a
    cancelled pruned solve carries its any-time [(best_lower,
    incumbent)] pair in the [`Cancelled] payload — the tightest
    enclosure of the optimum proven before the deadline ([None] when
    pruning was off or the solve died before seeding).

    [orderer] (default [`Exact]) selects what answers a cache miss:
    [`Scored] skips the DP entirely and replies with the
    {!Ovo_learn.Scorer} static ordering (span [serve.scored]) — a valid
    ordering and its achievable cost, {e not} a proven optimum, so the
    reply is never added to the cache and a later [`Exact] solve of the
    same function is unaffected.  Cache hits still answer exactly.

    [stats] wires the solve into the server's telemetry: the cache
    probe feeds the hit-rate window, every completed DP layer updates
    the engine progress gauges ([ovo_dp_layer], [ovo_dp_layer_states]),
    and the pruned-state total accumulates when pruning is active —
    including on the cancelled path. *)
