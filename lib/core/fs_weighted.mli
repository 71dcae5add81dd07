(** Weighted exact ordering: minimise [Σ_j w_(π[j]) · Cost_(π[j])]
    instead of the plain node count.

    Lemma 3 makes the width of a level a function of the set split
    alone, so the Friedman–Supowit recurrence survives any per-variable
    level weighting: [WCOST_I = min_h (WCOST_(I∖h) + w_h · Cost_h)].
    Non-uniform weights model levels with different implementation costs
    (e.g. pass-transistor stages, or variables whose tests dominate a
    traversal workload).  Uniform weights reduce to {!Fs}, order
    included.  The sweep is {!Subset_dp.complete} with [~weights]; this
    module checks the weights and reads the weighted cost off the
    optimal state's levels ({!Compact.weighted_cost}). *)

type result = {
  weighted_cost : int;  (** the minimised objective *)
  mincost : int;  (** plain node count of the chosen ordering *)
  order : int array;  (** read-last first, as everywhere *)
  diagram : Diagram.t;
}

val check_weights : n:int -> int array -> unit
(** Refuse weights that do not fit an [n]-variable solve: raises
    [Invalid_argument] unless there are [n] of them, none is negative
    and [Σ_h w_h · 2^(n-1) ≤ max_int].  A level has at most [2^(n-1)]
    nodes, so then no objective, bound or incumbent can overflow.
    {!run} checks first; a pruning seed priced under the weights
    ([Ovo_ordering.Seed.weighted_bound]) must check before it prices. *)

val run :
  ?trace:Ovo_obs.Trace.t ->
  ?kind:Compact.kind ->
  ?engine:Engine.t ->
  ?cancel:Cancel.t ->
  ?metrics:Metrics.t ->
  ?membudget:Membudget.t ->
  ?prune:Bound.t ->
  weights:int array ->
  Ovo_boolfun.Truthtable.t ->
  result
(** Weights must pass {!check_weights}.  [O*(3^n)] like the unweighted
    DP.  [engine]/[cancel]/[metrics] as in {!Fs.run}. *)

val run_mtable :
  ?trace:Ovo_obs.Trace.t ->
  ?kind:Compact.kind ->
  ?engine:Engine.t ->
  ?cancel:Cancel.t ->
  ?metrics:Metrics.t ->
  ?membudget:Membudget.t ->
  ?prune:Bound.t ->
  weights:int array ->
  Ovo_boolfun.Mtable.t ->
  result
