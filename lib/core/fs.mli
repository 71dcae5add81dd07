(** Algorithm FS — exact minimum-OBDD construction (paper Theorem 5, the
    Friedman–Supowit [O*(3^n)] dynamic program; the primary contribution
    of the titled DAC 1987 / [FS90] paper).

    Given the truth table of [f : {0,1}^n → {0,1}] (or a multi-valued
    table, Remark 2), [run] produces a minimum reduced diagram together
    with an optimal variable ordering, visiting every subset [I ⊆ \[n\]]
    once and charging [O(2^{n-|I|})] per subset —
    [Σ_k C(n,k) 2^{n-k} = 3^n] table cells in total.  With [weights] the
    same sweep minimises [Σ_j w_(π[j]) · Cost_(π[j])]: Lemma 3 makes a
    level's width a function of the set split alone, so
    [WCOST_I = min_h (WCOST_(I∖h) + w_h · Cost_h)]. *)

type result = {
  mincost : int;  (** minimum number of non-terminal nodes *)
  size : int;  (** {!Diagram.size} of the produced diagram *)
  order : int array;  (** optimal ordering; [order.(0)] is read last *)
  widths : int array;  (** [widths.(j)] = nodes labeled [order.(j)] *)
  diagram : Diagram.t;  (** a minimum diagram realising [order] *)
}

val run :
  ?trace:Ovo_obs.Trace.t ->
  ?kind:Compact.kind ->
  ?engine:Engine.t ->
  ?cancel:Cancel.t ->
  ?metrics:Metrics.t ->
  ?membudget:Membudget.t ->
  ?prune:Bound.t ->
  ?weights:int array ->
  ?on_layer:(Subset_dp.progress -> unit) ->
  ?resume:Subset_dp.progress list ->
  Ovo_boolfun.Truthtable.t ->
  result
(** Minimum OBDD ([kind = Bdd], default) or ZDD ([kind = Zdd]) for a
    Boolean function.  [engine] (default {!Engine.Seq}) splits each DP
    layer across domains; [metrics] (default a fresh context) receives
    the run's counters; a recording [trace] (default
    {!Ovo_obs.Trace.null}) gets one span per DP layer plus per-domain
    child spans under {!Engine.Par}.  [cancel] (default {!Cancel.never})
    is polled between DP layers: a fired token (explicit or
    deadline-expired, see {!Cancel}) aborts the run with
    {!Cancel.Cancelled} — wrap in {!Cancel.protect} for a typed
    [Error `Cancelled].

    [on_layer] (default a no-op) fires once per completed cardinality
    layer with that layer's [(subset, cost, choice)] triples — the
    checkpoint-emission hook ({!Ovo_store.Checkpoint} in the store
    library persists them).  [resume] (default [[]]) preloads previously
    completed layers so the sweep continues where a checkpointed run
    stopped; the final solution is bit-identical to an uninterrupted
    run under both engines.  See {!Subset_dp.run}.

    [prune] (default off) turns the sweep into an exact branch-and-bound
    against the given {!Bound.t} — same answers, fewer states; see
    {!Subset_dp}.  The final cost is sanity-checked against the seeded
    upper bound ({!Bound.check_final}), so an unsound provider raises
    {!Bound.Pruned_out} instead of silently corrupting the optimum.
    Incompatible with [resume].

    [weights] (default: the node count) must pass {!check_weights}.  The
    result's [mincost] stays the node count of the chosen order, whose
    weighted cost is [Σ_j weights.(order.(j)) · widths.(j)]; [prune]'s
    bound must be admissible for that objective ({!Bound.counting_lower}
    [~weights] is), and {!Bound.check_final} reads the optimal state's
    {!Compact.weighted_cost}.  A [resume] must come from a run with the
    same weights. *)

val run_mtable :
  ?trace:Ovo_obs.Trace.t ->
  ?kind:Compact.kind ->
  ?engine:Engine.t ->
  ?cancel:Cancel.t ->
  ?metrics:Metrics.t ->
  ?membudget:Membudget.t ->
  ?prune:Bound.t ->
  ?weights:int array ->
  ?on_layer:(Subset_dp.progress -> unit) ->
  ?resume:Subset_dp.progress list ->
  Ovo_boolfun.Mtable.t ->
  result
(** Multi-terminal variant (minimum MTBDD when [kind = Bdd]). *)

val check_weights : n:int -> int array -> unit
(** Refuse weights that do not fit an [n]-variable solve: raises
    [Invalid_argument] unless there are [n] of them, none is negative
    and [Σ_h w_h · 2^(n-1) ≤ max_int].  A level has at most [2^(n-1)]
    nodes, so then no objective, bound or incumbent can overflow.
    {!run} checks first; a pruning seed priced under the weights
    ([Ovo_ordering.Seed.weighted_bound]) must check before it prices. *)

val of_state : Compact.state -> result
(** Package a complete single-rooted compaction state (any provenance:
    FS, FS*, or the quantum algorithms) as a result.  Raises
    [Invalid_argument] on a multi-rooted one ({!Shared.of_state}). *)

val read_first_order : result -> int array
(** The ordering presented root-first (the direction BDD users expect):
    element 0 is the variable tested at the root. *)
