(** Portfolio search: run every heuristic, keep the best.

    No single heuristic dominates (the quality benches show each losing
    somewhere); a portfolio at roughly the summed probe budget is the
    practical default when the exact DP is out of reach. *)

val run :
  ?trace:Ovo_obs.Trace.t ->
  ?metrics:Ovo_core.Metrics.t ->
  ?kind:Ovo_core.Compact.kind ->
  ?rng:Random.State.t ->
  ?extra:
    (string
    * (metrics:Ovo_core.Metrics.t -> Ovo_boolfun.Truthtable.t -> Chain.result))
    list ->
  Ovo_boolfun.Truthtable.t ->
  (string * Chain.result) list
(** Every member's name and result, best first (ties in member order),
    so the head is the portfolio's answer.  Members: influence
    (static), sifting, window permutation, simulated annealing,
    genetic, random search, and the exact-block hybrid; the table is
    converted to an {!Ovo_boolfun.Mtable.t} once for all of them.  The
    RNG defaults to a fixed seed for reproducibility.  Every built-in
    member prices through its own {!Chain}, all charged to [metrics]
    (default a fresh context).

    [extra] prepends injected members (name, solver), each wrapped in
    the same [portfolio.<name>] span and charged to [metrics] — how
    layers above register the [ovo.learn] scorer without this library
    depending on it (the same inversion {!Seed} uses toward the core). *)
