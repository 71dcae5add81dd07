(** Algorithm [FS*] — the composable Friedman–Supowit dynamic program
    (paper Lemma 8 and the pseudo-code of Appendix D), run as a
    {e two-pass} sweep over two arena layers.

    Given [FS(⟨I₁,…,I_m⟩)] — here a {!Compact.state} whose assigned set
    is [I = I₁ ∪ … ∪ I_m], with one root or, for {!Shared}, several —
    and a set [J] of still-free variables, [FS*] computes
    [FS(⟨I₁,…,I_m,K⟩)] for every [K ⊆ J] by cardinality, using the
    recurrence of Lemma 7:

    [MINCOST⟨I,K⟩ = min_{h ∈ K} MINCOST⟨I, K∖h, h⟩].

    Stopping at cardinality [k] ({!run}'s [upto]) yields the set
    [{FS(⟨I,K⟩) : K ⊆ J, |K| = k}] in
    [O*(2^(n-|I|-|J|) · Σ_(j≤k) 2^(|J|-j) C(|J|,j))] time — the exact
    bound of Lemma 8 — which is the preprocessing step of the quantum
    algorithms.  Running to [k = |J|] with [I = ∅], [J = \[n\]] is the
    original algorithm FS (Theorem 5, {!Fs}).  The weighted objective
    of {!Fs.run} [~weights] is the same recurrence with a level of
    [width] nodes testing [h] costing [weights.(h) · width] (Lemma 3
    makes a level's width a function of the set split alone);
    {!complete} takes the weights.

    Inside the sweep a state is only [{mincost; next_id}] plus its
    table, a {e slice} at its colex rank in its layer's {!Arena} buffer:
    layer [k] needs only layer [k - 1] (Remark 1), so two buffers,
    ping-ponged and sized once by {!Arena.bytes}, hold every table the
    sweep builds, at 2 bytes per cell while the layer's ids allow it and
    4 bytes otherwise.  No sweep state has node levels; the full state
    ({!Compact.state}, with its levels and suborder) exists only where a
    chain is replayed: {!complete}'s winner, {!run}'s final layer and a
    resumed layer.

    The loop evaluates each subset in two passes: a {e cost pass} probes
    every candidate [h] with the count-only {!Compact.probe}, and only
    the single winner's slice is then written ({!Compact.write}) —
    losing candidates write nothing.  Each subset finds its predecessors [K ∖ {h}] by rank,
    without hashing.  Layers are independent given their predecessor,
    so an {!Engine.Par} engine runs each layer as one {!Engine.map} over
    the ranks, on a pool of domains opened once per sweep
    ({!Engine.with_pool}) with the calling domain as participant 0; each
    participant counts into its own {!Metrics.t} scratch and writes its
    subsets' winners and slices at their own ranks, so results are
    deterministic and identical to {!Engine.Seq}.

    The DP's table — [MINCOST⟨K⟩] and a tight last-placed variable for
    every subset — has one form, the {!table}: every cardinality layer
    is one colex-rank-indexed {!Layer_pack.Extent} (9 bytes per
    subset), created before the layer's map starts and charged then to
    an optional {!Membudget}, which only accounts (a solve is admitted
    against its budget before the sweep starts, {!Membudget.estimate}).
    Each participant writes its subsets' winners into the extent at
    their own ranks and nothing reads it before the map has joined, so
    the table is identical under both engines; a layer of the sweep is
    that extent plus the [next_id] of each rank's slice, and nothing is
    packed or copied between layers.
    {!run} returns it beside the final layer's states, and {!complete}
    backtracks the argmin pointers over it to
    materialise an optimal state in [|J|] compactions, as the paper
    reconstructs orderings from the DP table.

    With a {!Bound.t} context ([?prune]) the sweep becomes an exact
    {e branch-and-bound}: a subset whose cost plus admissible remaining
    bound exceeds the incumbent is never written (nor set in its extent
    — pruned entries cost the compressed encoding nothing).  The
    incumbent is seeded from an injected upper bound and tightened at
    layer boundaries from states whose completion cost is known exactly,
    on the calling domain only, so the surviving state set — and every
    answer — is deterministic and bit-identical to the unpruned sweep
    under {!Engine.Seq} and {!Engine.Par} alike.  A layer losing
    {e all} states raises {!Bound.Pruned_out}: no completion of the base
    beats the incumbent (only possible when the incumbent came from
    outside this sweep, as in the quantum tower's shared-incumbent
    sub-sweeps, or from an unsound seed).  Pruning is incompatible with
    [resume]. *)

type table
(** The packed table of one sweep: [MINCOST⟨base, K⟩] and a tight
    last-placed [h] (the backtracking pointer of the Lemma 7 recurrence)
    for every computed [K ⊆ J], [|K| ≤ upto], each layer held as one
    colex-rank-indexed {!Layer_pack.Extent}. *)

val mincost : table -> Varset.t -> int
(** [MINCOST⟨base, K⟩], read by rank ([∅] gives the base's own cost).
    Raises [Invalid_argument] when [K ⊄ J], [|K| > upto] or the table
    was {!release}d, and {!Bound.Pruned_out} when a pruned sweep
    discarded [K]. *)

val release : table -> unit
(** Hand the table's resident bytes back to the {!Membudget} its sweep
    charged them to; the table must not be read afterwards.  {!complete}
    releases its own table, and a sweep that raises releases the one it
    was building; a caller of {!run} releases the table it got once it
    is done with it. *)

type progress = {
  p_layer : int;  (** the cardinality layer that just completed *)
  p_entries : (Varset.t * int * int) array;
      (** one [(K, MINCOST⟨K⟩, tight last-placed h)] triple per subset
          of the layer, in enumeration (Gosper) order *)
}
(** One completed cardinality layer of a sweep — everything a checkpoint
    needs to persist, and everything a resumed sweep needs back:
    rebuilding the layer's states is a deterministic replay of the
    recorded choice chains, so a resumed run is bit-identical to an
    uninterrupted one under both engines. *)

type t = {
  j_set : Varset.t;
  upto : int;  (** cardinality at which the run stopped *)
  table : table;
      (** [MINCOST⟨I,K⟩] and the backtracking pointer of every [K ⊆ J]
          with [|K| ≤ upto]; read it with {!mincost} *)
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
  ?on_layer:(progress -> unit) ->
  ?resume:progress list ->
  ?upto:int ->
  base:Compact.state ->
  Varset.t ->
  t
(** [run ~base j_set] requires [j_set] to be a subset of the base
    state's free variables; [upto] defaults to [|j_set|] (full run).
    Raises [Invalid_argument] on violations.  [engine] (default
    {!Engine.Seq}) splits each cardinality layer across domains;
    [metrics] (default a fresh context) receives the run's counters,
    aggregated across domains.  The sweep's states live in its two arena
    buffers and die with them (only the packed [table] survives); the
    returned [upto] layer is rebuilt by replaying each kept subset's
    chain over [base] (span ["dp.rebuild"]).  Only the last placement
    of each replay is charged to [metrics], so the counters read as
    if the sweep had built the final layer itself.

    [cancel] (default {!Cancel.never}) is polled between cardinality
    layers: a fired token makes the sweep raise {!Cancel.Cancelled}
    instead of starting the next layer, so a deadline-expired run
    stops within one layer's work.  Wrap the call in {!Cancel.protect}
    for a typed [Error `Cancelled] instead of the exception.  Every
    exit — a result, {!Cancel.Cancelled}, {!Bound.Pruned_out}, or an
    exception from [on_layer] — joins the sweep's worker domains
    before it returns or raises.

    [on_layer] (default none) fires at the same layer boundaries
    [cancel] is polled at, once per {e newly computed} layer — the
    checkpoint-emission hook.  An exception it raises aborts the sweep
    and propagates.  [resume] (default [[]]) replays previously
    completed layers [1..m] (consecutive, complete, validated): their
    triples preload the packed table, layer [m]'s slices are
    rebuilt by replaying each subset's recorded chain over [base], and
    the sweep continues at [m+1] — bit-identical to an uninterrupted
    run under {!Engine.Seq} and {!Engine.Par} alike.

    [membudget] (default an {!Membudget.unbounded} context) is charged
    the bytes of every layer's extent as the sweep creates it; the
    caller releases them with {!release}.  It only accounts: results
    never depend on it. *)

val state_of : t -> Varset.t -> Compact.state
(** The kept optimal state of a subset at cardinality [upto].  Raises
    [Invalid_argument] for a subset outside that layer ([K ⊄ J] or
    [|K| ≠ upto]), and {!Bound.Pruned_out} when a pruned sweep
    discarded it — the subset provably heads no ordering beating the
    incumbent. *)

val complete :
  ?trace:Ovo_obs.Trace.t ->
  ?engine:Engine.t ->
  ?cancel:Cancel.t ->
  ?metrics:Metrics.t ->
  ?membudget:Membudget.t ->
  ?prune:Bound.t ->
  ?weights:int array ->
  ?on_layer:(progress -> unit) ->
  ?resume:progress list ->
  base:Compact.state ->
  Varset.t ->
  Compact.state
(** [complete ~base j_set]: full run returning the single optimal state
    for [K = J] — the composition step [FS(⟨I⟩) ↦ FS(⟨I,J⟩)] used
    verbatim by the quantum algorithms (their classical subroutine
    [Γ = FS*]) and the entry point {!Fs.run} drives.  The sweep of
    {!run} without rebuilding its final layer, then one backtrack of the
    argmin pointers over the packed table, replayed over [base] in [|J|]
    materialisations (span ["dp.reconstruct"]), after which the table
    is {!release}d.
    The only full state it builds is that chain's.

    With [weights] (one non-negative weight per variable of the base,
    checked by the caller, as {!Fs.run} does) the sweep minimises
    the weighted objective instead of the node count: a level of
    [width] nodes testing [h] costs [weights.(h) · width], a state's
    objective is {!Compact.weighted_cost} over its levels, and [prune]'s
    bound must be admissible for that objective.  Ties still keep the
    smallest [h]. *)
