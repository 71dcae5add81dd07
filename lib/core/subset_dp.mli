(** The subset dynamic program of Lemmas 4/7, abstracted over the state
    being compacted — a {e two-pass} engine over two arena layers.

    [FS*] ({!Fs_star}, over a {!Compact.state} with one root or, for
    {!Shared}, several) and the weighted objective ({!Fs_weighted}) run
    the same loop: for growing cardinality [k], compute the optimal
    state for every [K ⊆ J] with [|K| = k] by trying each [h ∈ K] on top
    of the optimal state for [K ∖ {h}].  This functor captures that loop
    once; the per-state operations come from the parameter.

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
    every candidate [h] with the count-only [probe] kernel, and only the
    single winner's slice is then written — losing candidates write
    nothing.  Each subset finds its predecessors [K ∖ {h}] by rank,
    without hashing.  Layers are independent given their predecessor,
    so an {!Engine.Par} engine runs each layer as one {!Engine.map} over
    the ranks, on a pool of domains opened once per sweep
    ({!Engine.with_pool}) with the calling domain as participant 0; each
    participant counts into its own {!Metrics.t} scratch and writes its
    subsets' winners and slices at their own ranks, so results are
    deterministic and identical to {!Engine.Seq}.

    The DP's table — [MINCOST⟨K⟩] and a tight last-placed variable for
    every subset — has one form, the {!table}: every completed
    cardinality layer is bit-packed into one colex-rank-indexed
    {!Layer_pack.Extent} (9 bytes per subset) and charged to an optional
    {!Membudget}, which only accounts: a solve is admitted against its
    budget before the sweep starts ({!Membudget.estimate}), and the
    calling domain packs each layer by rank once every participant has
    finished it, so the table is identical under both engines.
    {!run} returns it beside the final layer's states, {!costs} returns
    it alone, and {!complete} backtracks the argmin pointers over it to
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

module type COMPACTABLE = sig
  type state
  (** The full state: its tables, node levels and suborder.  The sweep
      builds one only to replay a chain. *)

  val materialise : metrics:Metrics.t -> state -> int -> state
  (** Place one variable on top of the assigned block of a full state
      (a replay step; accounting goes to the materialisation
      counters). *)

  val mincost : state -> int
  (** The DP objective so far. *)

  val free : state -> Varset.t
  (** Variables not yet assigned. *)

  val next_id : state -> int
  (** The id the next created node gets: every id in the state's
      tables is below it. *)

  (** {2 The sweep kernel}

      The sweep's [base] is a full state; the functions below see it
      only for its constants (diagram kind, weights).  A slice of the
      base is {!cells} cells long, and every compaction halves it. *)

  val cells : state -> int
  (** Cells of the state's slice. *)

  val load : state -> Arena.layer -> int -> unit
  (** [load st l r] writes the state's tables as slice [r] of [l]. *)

  val probe :
    metrics:Metrics.t ->
    base:state ->
    Arena.layer ->
    int ->
    bit:int ->
    next_id:int ->
    int
  (** [probe ~base l r ~bit ~next_id]: the number of nodes placing the
      variable at bit [bit] of slice [r]'s index would create, counted
      without writing anything.  [next_id] is the slice's state's. *)

  val write :
    metrics:Metrics.t ->
    base:state ->
    Arena.layer ->
    int ->
    Arena.layer ->
    int ->
    bit:int ->
    next_id:int ->
    int
  (** [write ~base src r dst dr ~bit ~next_id]: the same placement,
      written as slice [dr] of [dst]; returns the width {!probe}
      counted. *)

  val step_cost : base:state -> Varset.t -> int -> width:int -> int
  (** [step_cost ~base sub h ~width]: what placing [h] on the state of
      [sub] (relative to [base]) adds to the objective when the
      placement creates [width] nodes.  Replaying the placement must
      move {!mincost} by exactly this much. *)
end

type table
(** The packed table of one sweep: [MINCOST⟨base, K⟩] and a tight
    last-placed [h] (the backtracking pointer of the Lemma 7 recurrence)
    for every computed [K ⊆ J], [|K| ≤ upto], each layer held as one
    colex-rank-indexed {!Layer_pack.Extent}.  It is state-independent,
    so it lives outside the functor and is shared by every instance. *)

val mincost : table -> Varset.t -> int
(** [MINCOST⟨base, K⟩], read by rank ([∅] gives the base's own cost).
    Raises [Invalid_argument] when [K ⊄ J], [|K| > upto] or the table
    was {!release}d, and {!Bound.Pruned_out} when a pruned sweep
    discarded [K]. *)

val release : table -> unit
(** Hand the table's resident bytes back to the {!Membudget} its sweep
    charged them to; the table must not be read afterwards.  {!Make.complete}
    releases its own table, and a sweep that raises releases the one it
    was building; a caller of {!Make.run} or {!Make.costs} releases the
    table it got once it is done with it. *)

type progress = {
  p_layer : int;  (** the cardinality layer that just completed *)
  p_entries : (Varset.t * int * int) array;
      (** one [(K, MINCOST⟨K⟩, tight last-placed h)] triple per subset
          of the layer, in enumeration (Gosper) order *)
}
(** One completed cardinality layer of a sweep — everything a checkpoint
    needs to persist, and everything a resumed sweep needs back.  Like
    {!table} it is state-independent: rebuilding the layer's states is a
    deterministic replay of the recorded choice chains, so a resumed run
    is bit-identical to an uninterrupted one under both engines. *)

val binomial : int -> int -> int
(** [binomial n k] = C(n,k); [0] outside [0 <= k <= n].  Exposed for
    resume validation (a complete layer [k] over [J] has [C(|J|,k)]
    entries). *)

module Make (S : COMPACTABLE) : sig
  type t = {
    j_set : Varset.t;
    upto : int;
    table : table;  (** the packed cost/choice table of the sweep *)
    layer : (Varset.t, S.state) Hashtbl.t;
        (** optimal states at cardinality [upto] *)
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
    base:S.state ->
    Varset.t ->
    t
  (** As {!Fs_star.run}: requires [j_set ⊆ free base]; [upto] defaults
      to [|j_set|].  Engine defaults to {!Engine.Seq}; metrics to
      a fresh {!Metrics.t}.  The sweep's states live in its two arena
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
      the packed bytes of every completed layer; the caller releases
      them with {!release}.  It only accounts: results never depend on
      it. *)

  val costs :
    ?trace:Ovo_obs.Trace.t ->
    ?engine:Engine.t ->
    ?cancel:Cancel.t ->
    ?metrics:Metrics.t ->
    ?membudget:Membudget.t ->
    ?prune:Bound.t ->
    ?on_layer:(progress -> unit) ->
    ?resume:progress list ->
    ?upto:int ->
    base:S.state ->
    Varset.t ->
    table
  (** Pure cost-table mode: same sweep, but the final layer's states are
      never rebuilt and only the packed {!table} is returned.
      Same validation and defaults as {!run}, including [on_layer] and
      [resume]. *)

  val state_of : t -> Varset.t -> S.state
  (** The kept optimal state of a subset at cardinality [upto].  Raises
      [Invalid_argument] for a subset outside that layer ([K ⊄ J] or
      [|K| ≠ upto]), and {!Bound.Pruned_out} when a pruned sweep
      discarded it — the subset provably heads no ordering beating the
      incumbent. *)

  val mincost_of : t -> Varset.t -> int
  (** [mincost t.table]: [MINCOST⟨base, K⟩] for [|K| ≤ upto], with the
      same failures as {!mincost}. *)

  val complete :
    ?trace:Ovo_obs.Trace.t ->
    ?engine:Engine.t ->
    ?cancel:Cancel.t ->
    ?metrics:Metrics.t ->
    ?membudget:Membudget.t ->
    ?prune:Bound.t ->
    ?on_layer:(progress -> unit) ->
    ?resume:progress list ->
    base:S.state ->
    Varset.t ->
    S.state
  (** Full run; the optimal state for [K = J]: {!costs}, then one
      backtrack of the argmin pointers over the packed table, replayed
      over [base] in [|J|] materialisations (span ["dp.reconstruct"]),
      after which the table is {!release}d.  The only full state it
      builds is that chain's; this is the entry point {!Fs.run}
      drives. *)
end
