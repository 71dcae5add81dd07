(** Rudell-style sifting, the dominant practical reordering heuristic.

    Each variable in turn (largest level first) is moved through every
    position while the others keep their relative order; it is left at
    the best position found.  Passes repeat until no pass improves the
    size, at most 8 passes.

    Positions are priced through a {!Chain} rather than by adjacent
    in-place swaps.  By Lemma 3, moving a variable changes only the
    levels between its old and new positions: the upward targets share
    one chain from the variable's prefix state, plus one width probe
    each, and each downward target needs one short chain from its own
    prefix.  Sifting one variable therefore scans [O(2^n)] cells, and
    one pass [O(n · 2^n)], exactly as accurate as a full compaction
    chain per probe at [O(n² · 2^n)].

    The [sift.run] span carries the pass and probe counts, the final
    cost and the [table_cells] its pricing scanned.

    Sifting is a {e heuristic}: it has no worst-case guarantee (the
    paper's motivation for exact methods) and the tests include functions
    where it lands above the FS optimum. *)

val run :
  ?trace:Ovo_obs.Trace.t ->
  ?metrics:Ovo_core.Metrics.t ->
  ?kind:Ovo_core.Compact.kind ->
  ?initial:int array ->
  Ovo_boolfun.Mtable.t ->
  Chain.result
(** Default initial ordering the identity. *)
