(** Execution context shared by all simulated quantum algorithms: the
    error budget, the optional RNG that arms error injection, the query
    statistics, plus the engine and metrics context the classical
    subroutines run under. *)

type t = {
  rng : Random.State.t option;
      (** when present, qsearch errors are injected with prob. [epsilon] *)
  epsilon : float;  (** per-search error bound (paper: [2^(-p(n))]) *)
  stats : Qsearch.stats;
  engine : Ovo_core.Engine.t;
      (** engine for the classical [FS*] subroutines (default [Seq]) *)
  metrics : Ovo_core.Metrics.t;
      (** per-context counters; modeled costs are measured against this *)
  trace : Ovo_obs.Trace.t;
      (** span tracer threaded through the classical subroutines and the
          quantum recursion (default {!Ovo_obs.Trace.null}) *)
  membudget : Ovo_core.Membudget.t option;
      (** one {e global} accounting context shared by every recursive
          [FS*] sub-sweep of the tower; each sub-sweep releases its
          table when it returns, so its peak is the most packed table
          one point of the recursion holds *)
  bound : Ovo_core.Bound.t option;
      (** one {e global} branch-and-bound context: every sub-sweep
          prunes against the same incumbent, and a sub-sweep of a
          provably hopeless branch dies early with
          {!Ovo_core.Bound.Pruned_out}, which the search oracles absorb
          as "worse than the incumbent" *)
}

val make :
  ?rng:Random.State.t ->
  ?epsilon:float ->
  ?engine:Ovo_core.Engine.t ->
  ?trace:Ovo_obs.Trace.t ->
  ?membudget:Ovo_core.Membudget.t ->
  ?bound:Ovo_core.Bound.t ->
  unit ->
  t
(** Default [epsilon] is [2^(-20)]; no [rng] means deterministic, exact
    simulation.  A fresh {!Ovo_core.Metrics.t} is created per context. *)
