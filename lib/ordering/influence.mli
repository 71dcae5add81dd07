(** Influence-based static ordering — a structure-driven heuristic.

    The influence of a variable is the probability that flipping it
    flips the function on a uniform input (its Boolean-Fourier weight).
    A classical static-ordering rule of thumb places high-influence
    variables near the root: they split the function most decisively, so
    the sub-functions below shrink fastest.  Static heuristics cost one
    pass over the table ([O(n·2^n)]) instead of the repeated probing of
    sifting; the quality benches show how much optimality that buys or
    costs. *)

val influences : Ovo_boolfun.Truthtable.t -> float array
(** [influences tt].(j) = Pr over uniform [x] that
    [f(x) ≠ f(x xor e_j)]. *)

val run :
  ?metrics:Ovo_core.Metrics.t ->
  ?kind:Ovo_core.Compact.kind ->
  Ovo_boolfun.Truthtable.t ->
  Chain.result
(** Order variables by descending influence (ties by index), so the
    highest influence sits at the root, and evaluate once. *)
