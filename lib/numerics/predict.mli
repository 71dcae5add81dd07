(** Closed-form cost predictors, in the same unit the implementations
    count (table cells processed), for the bench harness to plot next to
    measured numbers.

    The implementation-level counts are function-independent — a table
    compaction always touches exactly half the previous table — so these
    predictors are {e exact} for the classical algorithms and for the
    simulated quantum accounting; the tests assert equality. *)

val fs_cells : int -> float
(** Exact cells processed by algorithm FS on [n] variables:
    [Σ_k C(n,k)·k·2^(n-k) = n·3^(n-1)] (each size-[k] set tries its [k]
    last-variable choices, each a compaction of [2^(n-k)] cells). *)

val brute_force_cells : int -> float
(** Exact cells of the [O*(n!·2^n)] brute force: [n!·(2^n - 1)] (one
    compaction chain per ordering). *)

val eval_order_cells : int -> float
(** Cells of evaluating one ordering: [2^n - 1]. *)

val factorial : int -> float

val log2_cost_per_var : (int * float) list -> float
(** Least-squares slope of [log₂ cost] against [n] — the measured
    exponent base is [2^slope]; used to report "who wins, by what base"
    in the benches. *)

(** {2 Modeled quantum cost}

    The simulated quantum algorithms charge a deterministic,
    function-independent cost (classical parts: exact cell counts;
    searches: [queries x max-branch]).  The combinators below compute
    that exact number analytically, so the bench harness can extend the
    cost curves far beyond what the simulation can execute and locate the
    modeled crossovers.  [Test_optobdd] asserts bit-for-bit agreement
    with the simulation on small instances. *)

val theorem10_cost : epsilon:float -> alpha:float array -> int -> float
(** Whole-run modeled cost of [OptOBDD(k, alpha)] on [n] variables. *)

val tower_cost :
  epsilon:float -> alphas:float array array -> depth:int -> int -> float
(** Whole-run modeled cost of the Theorem 13 composition of the given
    depth ([alphas.(i)] parameterises round [i]). *)
