(** Window-permutation reordering.

    Classical local-search heuristic: slide a window of [w] adjacent
    levels across the ordering and replace its contents by the best of
    the [w!] arrangements; sweep until a whole sweep makes no
    improvement, at most 16 sweeps.  A permutation of the window at
    [start] changes only the window's levels (Lemma 3), so its {!Chain}
    price needs the prefix state at [start] plus at most [w]
    compactions: [O(w! · 2^(n-start))] cells per position and
    [O(w! · 2^n)] per sweep.  Cheap, weaker than sifting, and another
    baseline with no optimality guarantee.  The [window.run] span carries
    the sweep and probe counts, the final cost and the [table_cells] its
    pricing scanned. *)

val run :
  ?trace:Ovo_obs.Trace.t ->
  ?metrics:Ovo_core.Metrics.t ->
  ?kind:Ovo_core.Compact.kind ->
  ?window:int ->
  ?initial:int array ->
  Ovo_boolfun.Mtable.t ->
  Chain.result
(** Default window 3 (clamped to [n]). *)
