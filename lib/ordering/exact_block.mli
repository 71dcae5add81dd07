(** Hybrid heuristic: exact optimisation of contiguous blocks.

    The paper (after [MT98, Sec. 9.22]) motivates exact methods partly
    because they "can be applied at least to parts of the OBDDs within a
    heuristics procedure".  This module is that procedure: a window of
    [block] adjacent levels is re-ordered {e exactly} — not by the
    [w!] enumeration of {!Window}, but by running the composable dynamic
    program [FS*] (Lemma 8) from the compaction state of the levels below
    the window.  Lemma 3 guarantees the levels above the window keep
    their widths (they depend only on the {e set} split), so each window
    step can only improve the size; sweeps repeat until a fixed point,
    at most 8 sweeps.

    Cost per window position: [O(2^(n-s) · 3^w)] cells instead of
    [O(w! · 2^n)] — for [w ≥ 5] the DP is already the cheaper exact
    window.  The state below the window is the {!Chain}'s prefix state,
    and the result is priced by the same chain. *)

val run :
  ?metrics:Ovo_core.Metrics.t ->
  ?kind:Ovo_core.Compact.kind ->
  ?block:int ->
  ?initial:int array ->
  Ovo_boolfun.Mtable.t ->
  Chain.result
(** Default [block] 4 (clamped to [n]; [block = n] degenerates to the
    full exact FS). *)
