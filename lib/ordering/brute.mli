(** Brute-force optimal ordering — the paper's [O*(n!·2^n)] baseline.

    Evaluates every permutation with one compaction chain ([2^n - 1]
    table cells each).  This is the algorithm the FS dynamic program was
    invented to beat; the benches race them to show the crossover. *)

val best :
  ?metrics:Ovo_core.Metrics.t ->
  ?kind:Ovo_core.Compact.kind ->
  Ovo_boolfun.Mtable.t ->
  Chain.result
(** Exhaustive search over all [n!] permutations; the order is the
    first optimum met.  Refuses arities above 9 (raises
    [Invalid_argument]) to protect the caller from [n!] explosions. *)
