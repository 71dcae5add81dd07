(** Simulated-annealing ordering search.

    The remaining classic from the reordering-heuristics family: random
    neighbourhood moves (relocating one variable) accepted when they
    improve the size or, with probability [exp(-delta/T)], when they do
    not; the temperature [T] decays geometrically.  Anneals escape the
    local optima that trap sifting and window permutation, at the price
    of many more probes — the quality benches put all of them side by
    side against the exact optimum.  A move from [a] to [b] is priced
    through a {!Chain} from the prefix state at [min a b] to
    [max a b] (Lemma 3), and an accepted move recompacts only those
    levels. *)

val run :
  ?metrics:Ovo_core.Metrics.t ->
  ?kind:Ovo_core.Compact.kind ->
  ?initial:int array ->
  rng:Random.State.t ->
  Ovo_boolfun.Mtable.t ->
  Chain.result
(** 400 steps, start temperature 5.0 (in node-count units), cooling
    factor 0.97 per step.  The best ordering ever seen is returned, so
    the result never loses to its initial ordering. *)
