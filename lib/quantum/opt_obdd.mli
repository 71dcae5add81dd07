(** The quantum divide-and-conquer optimisers of the paper's Sections 3–4:
    [OptOBDD(k, α)] (Theorem 10) and the composition tower
    [Γ_(i+1) = OptOBDD*_(Γ_i)] (Lemmas 11/12, Theorem 13).

    Every algorithm here is expressed as a {!subroutine} — a procedure
    that extends a compaction state [FS(⟨I⟩)] to [FS(⟨I,J⟩)] for an
    arbitrary free set [J].  The classical [FS*] is the base subroutine;
    [opt_obdd ~k ~alpha Γ] wraps any subroutine into the quantum
    divide-and-conquer of the pseudo-code [OptOBDD*_Γ(k, α)]:

    - a classical [FS*] preprocess computes [FS(⟨I,K⟩)] for every
      [K ⊆ J] with [|K| = α₁·|J|];
    - [DivideAndConquer(L, t)] finds, with simulated quantum minimum
      finding (Lemma 6 / {!Qsearch}), the split [K ⊂ L] of cardinality
      [α_(t-1)·|J|] minimising [MINCOST⟨I,K,L∖K⟩] (the Lemma 9
      identity), recursing on [K] and composing the remainder with [Γ].

    A subroutine never looks inside a state beyond what
    {!Ovo_core.Subset_dp} does, so it serves the multi-rooted states of
    {!Ovo_core.Shared} unchanged: {!apply} over
    {!Ovo_core.Shared.initial}, packaged by {!Ovo_core.Shared.of_state},
    minimises a shared diagram with these same subroutines — the
    paper's closing remark that the speedups carry over to other diagram
    variants.

    The returned modeled cost is measured in table-cell operations: the
    classical parts contribute their {e actual} counted cells, the
    quantum searches contribute [queries × max-branch-cost] as a quantum
    machine would.  Because the simulation evaluates every branch, the
    {e result} is exact whenever no error is injected; correctness tests
    compare against {!Ovo_core.Fs}. *)

type ctx = {
  rng : Random.State.t option;
      (** when present, qsearch errors are injected with prob. [epsilon] *)
  epsilon : float;  (** per-search error bound (paper: [2^(-p(n))]) *)
  stats : Qsearch.stats;
  engine : Ovo_core.Engine.t;
      (** engine for the classical [FS*] subroutines (default [Seq]) *)
  metrics : Ovo_core.Metrics.t;
      (** per-context counters backing the modeled-cost measurements *)
  trace : Ovo_obs.Trace.t;
      (** span tracer threaded through the classical subroutines and the
          quantum recursion, which records one span per level with
          oracle-call counts and modeled-query deltas (default
          {!Ovo_obs.Trace.null}) *)
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
(** Execution context shared by all simulated quantum algorithms: the
    error budget, the optional RNG that arms error injection, the query
    statistics, plus the engine and metrics context the classical
    subroutines run under. *)

val make_ctx :
  ?rng:Random.State.t ->
  ?epsilon:float ->
  ?engine:Ovo_core.Engine.t ->
  ?trace:Ovo_obs.Trace.t ->
  ?membudget:Ovo_core.Membudget.t ->
  ?bound:Ovo_core.Bound.t ->
  unit ->
  ctx
(** Default [epsilon] is [2^(-20)]; no [rng] means deterministic, exact
    simulation.  A fresh {!Ovo_core.Metrics.t} is created per context.
    With [bound], the deterministic result is additionally
    checked against the seeded upper bound ({!Ovo_core.Bound.check_final})
    and sub-sweeps of hopeless branches exit early with
    {!Ovo_core.Bound.Pruned_out}, absorbed by the enclosing search. *)

type subroutine

val name : subroutine -> string

val apply :
  subroutine ->
  ctx ->
  Ovo_core.Compact.state ->
  Ovo_core.Varset.t ->
  Ovo_core.Compact.state * float
(** [apply sub ctx base j_set] produces the optimal complete-on-[J]
    state and the modeled cost.  [j_set] must be free in [base]. *)

val fs_star : subroutine
(** The classical composition subroutine (Lemma 8); modeled cost =
    measured table cells. *)

val opt_obdd : ?label:string -> k:int -> alpha:float array -> subroutine -> subroutine
(** [opt_obdd ~k ~alpha gamma] is [OptOBDD*_gamma(k, α)].  Requires
    [Array.length alpha = k] and [0 < α₁ ≤ … ≤ α_k < 1].  Division
    points are rounded to integers, clamped to [1..|J|-1], and
    de-duplicated, so small instances degrade gracefully (with no
    intermediate point left, the subroutine collapses to [gamma]'s
    classical preprocessing, i.e. plain [FS*]). *)

val simple_split : ?alpha:float -> unit -> subroutine
(** Section 3.1's first algorithm: a {e single} quantum search over the
    [C(n, αn)] splits of Lemma 9, with no classical preprocessing — the
    oracle computes [FS(K)] from scratch and composes with [FS*].  The
    modeled base is the section's [γ₀ ≈ 2.98581]; the default [alpha] is
    its optimiser [α* = (log₂3 - 1)/(2·log₂3 - 1) ≈ 0.269577]. *)

val theorem10 : ?k:int -> unit -> subroutine
(** [OptOBDD(k, α)] with the published Table 1 parameters
    (default [k = 6]): the [O*(2.83728^n)] algorithm. *)

val tower : depth:int -> subroutine
(** The Theorem 13 composition: [Γ_1] = [OptOBDD*] over [FS*] with
    parameter row 0, …,
    [Γ_depth], with the published Table 2 parameter rows.  [depth] in
    [1..10]; depth 10 is the [O*(2.77286^n)] algorithm.  Beware: the
    classical simulation of depth [d] multiplies work per level, so keep
    [n] small for [d > 2]. *)

val minimize :
  ?kind:Ovo_core.Compact.kind ->
  ctx:ctx ->
  subroutine ->
  Ovo_boolfun.Mtable.t ->
  Ovo_core.Fs.result * float
(** End-to-end minimisation of a function (a Boolean one through
    {!Ovo_boolfun.Mtable.of_truthtable}; a multi-valued table gives a
    minimum MTBDD or multi-terminal ZDD): returns the (claimed) minimum
    diagram with its ordering, plus the modeled quantum time. *)
