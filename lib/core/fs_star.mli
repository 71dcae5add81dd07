(** Algorithm [FS*] — the composable Friedman–Supowit dynamic program
    (paper Lemma 8 and the pseudo-code of Appendix D).

    Given [FS(⟨I₁,…,I_m⟩)] — here a {!Compact.state} whose assigned set
    is [I = I₁ ∪ … ∪ I_m], with one root or, for {!Shared}, several —
    and a set [J] of still-free variables, [FS*]
    computes [FS(⟨I₁,…,I_m,K⟩)] for every [K ⊆ J] by cardinality, using
    the recurrence of Lemma 7:

    [MINCOST⟨I,K⟩ = min_{h ∈ K} MINCOST⟨I, K∖h, h⟩].

    Stopping at cardinality [k] yields the set
    [{FS(⟨I,K⟩) : K ⊆ J, |K| = k}] in
    [O*(2^(n-|I|-|J|) · Σ_(j≤k) 2^(|J|-j) C(|J|,j))] time — the exact
    bound of Lemma 8 — which is the preprocessing step of the quantum
    algorithms.  Running to [k = |J|] with [I = ∅], [J = \[n\]] is the
    original algorithm FS (Theorem 5). *)

module State : Subset_dp.COMPACTABLE with type state = Compact.state
(** {!Compact.state} as the DP's state: a node adds 1 to the objective,
    and the sweep kernel is {!Compact.probe}/{!Compact.write}. *)

type t = private {
  j_set : Varset.t;
  upto : int;  (** cardinality at which the run stopped *)
  table : Subset_dp.table;
      (** [MINCOST⟨I,K⟩] and the backtracking pointer of every [K ⊆ J]
          with [|K| ≤ upto], packed by rank (see {!Subset_dp.table});
          read it with {!mincost_of} *)
  layer : (Varset.t, Compact.state) Hashtbl.t;
      (** the optimal states at cardinality [upto], keyed by [K] *)
}

val run :
  ?trace:Ovo_obs.Trace.t ->
  ?engine:Engine.t ->
  ?cancel:Cancel.t ->
  ?metrics:Metrics.t ->
  ?membudget:Membudget.t ->
  ?prune:Bound.t ->
  ?on_layer:(Subset_dp.progress -> unit) ->
  ?resume:Subset_dp.progress list ->
  ?upto:int ->
  base:Compact.state ->
  Varset.t ->
  t
(** [run ~base j_set] requires [j_set] to be a subset of the base
    state's free variables; [upto] defaults to [|j_set|] (full run).
    Raises [Invalid_argument] on violations.  [engine] (default
    {!Engine.Seq}) splits each cardinality layer across domains;
    [metrics] (default a fresh context) receives the run's counters,
    aggregated across domains; [cancel] (default {!Cancel.never}) is
    polled between layers; [on_layer]/[resume] checkpoint and resume the
    sweep at those same boundaries — see {!Subset_dp.Make.run}. *)

val costs :
  ?trace:Ovo_obs.Trace.t ->
  ?engine:Engine.t ->
  ?cancel:Cancel.t ->
  ?metrics:Metrics.t ->
  ?membudget:Membudget.t ->
  ?prune:Bound.t ->
  ?on_layer:(Subset_dp.progress -> unit) ->
  ?resume:Subset_dp.progress list ->
  ?upto:int ->
  base:Compact.state ->
  Varset.t ->
  Subset_dp.table
(** Pure cost-table mode: same sweep as {!run} but no layer of states is
    returned — only the packed table of [MINCOST⟨I,K⟩] and backtracking
    pointers, 9 bytes per subset; read it with {!Subset_dp.mincost}.
    Same validation and defaults as {!run}. *)

val state_of : t -> Varset.t -> Compact.state
(** The optimal state for a [K] in the final layer.  Raises
    [Invalid_argument] for a [K] outside that layer and
    {!Bound.Pruned_out} for one a pruned run discarded. *)

val mincost_of : t -> Varset.t -> int
(** [MINCOST⟨I,K⟩] for [|K| ≤ upto], read from the packed table.
    Raises [Invalid_argument] when [K] was not computed ([K ⊄ J] or
    [|K| > upto]) and {!Bound.Pruned_out} for a [K] a pruned run
    discarded. *)

val complete :
  ?trace:Ovo_obs.Trace.t ->
  ?engine:Engine.t ->
  ?cancel:Cancel.t ->
  ?metrics:Metrics.t ->
  ?membudget:Membudget.t ->
  ?prune:Bound.t ->
  ?on_layer:(Subset_dp.progress -> unit) ->
  ?resume:Subset_dp.progress list ->
  base:Compact.state ->
  Varset.t ->
  Compact.state
(** [complete ~base j_set]: full run returning the single optimal state
    for [K = J] — the
    composition step [FS(⟨I⟩) ↦ FS(⟨I,J⟩)] used verbatim by the quantum
    algorithms (their classical subroutine [Γ = FS*]).  Runs in
    cost-table mode and backtracks the packed table to the winner: the
    sweep's states are arena slices, and the only full state it builds
    is the winner's, by replaying its chain. *)
