(** Brute-force optimal ordering — the paper's [O*(n!·2^n)] baseline.

    Evaluates every permutation with one compaction chain ([2^n - 1]
    table cells each).  This is the algorithm the FS dynamic program was
    invented to beat; the benches race them to show the crossover. *)

type result = {
  mincost : int;
  order : int array;  (** a witness optimum, read-last-first *)
  evaluated : int;  (** permutations tried, [n!] *)
}

val best :
  ?metrics:Ovo_core.Metrics.t ->
  ?kind:Ovo_core.Compact.kind ->
  Ovo_boolfun.Truthtable.t ->
  result
(** Exhaustive search.  Refuses arities above 9 (raises
    [Invalid_argument]) to protect the caller from [n!] explosions. *)

val best_mtable :
  ?metrics:Ovo_core.Metrics.t ->
  ?kind:Ovo_core.Compact.kind ->
  Ovo_boolfun.Mtable.t ->
  result
(** Multi-terminal variant. *)
