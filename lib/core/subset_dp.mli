(** The subset dynamic program of Lemmas 4/7, abstracted over the state
    being compacted — now a {e two-pass} engine.

    Both the single-rooted [FS*] ({!Fs_star}) and the multi-rooted
    variant ({!Shared}) run the same loop: for growing cardinality [k],
    compute the optimal state for every [K ⊆ J] with [|K| = k] by trying
    each [h ∈ K] on top of the optimal state for [K ∖ {h}].  This functor
    captures that loop once; the per-state operations come from the
    parameter.

    The loop evaluates each subset in two passes: a {e cost pass} probes
    every candidate [h] with the allocation-free [cost_if_compacted]
    kernel, and only the single winner is then materialised — losing
    candidates never allocate a state.  Layers are
    independent given their predecessor, so an {!Engine.Par} engine
    splits each layer across worker domains, each counting into its own
    {!Metrics.t} scratch; results are deterministic and identical to
    {!Engine.Seq}.

    Beyond the classic {!run} (which returns the final layer's states),
    the {e cost-table mode} {!costs} stores only two integers per subset
    — [MINCOST⟨K⟩] and the tight last-placed variable — and
    {!reconstruct} replays those tight transitions over the base to
    materialise an optimal state in [|K|] compactions, as the paper
    reconstructs orderings from the DP table.

    Internally every completed cardinality layer is bit-packed into a
    {!Layer_pack} (9 bytes per subset) and accounted against an optional
    {!Membudget}: past the budget, completed layers spill to disk
    through the injected sink and are reloaded lazily during
    backtracking — results stay bit-identical to the in-memory run under
    both engines, because packing happens after the parallel join.

    With a {!Bound.t} context ([?prune]) the sweep becomes an exact
    {e branch-and-bound}: a subset whose cost plus admissible remaining
    bound exceeds the incumbent is never materialised (nor packed — a
    pruned layer spills sparse).  The incumbent is seeded from an
    injected upper bound and tightened at layer boundaries from states
    whose completion cost is known exactly, on the calling domain only,
    so the surviving state set — and every answer — is deterministic
    and bit-identical to the unpruned sweep under {!Engine.Seq} and
    {!Engine.Par} alike.  A layer losing {e all} states raises
    {!Bound.Pruned_out}: no completion of the base beats the incumbent
    (only possible when the incumbent came from outside this sweep, as
    in the quantum tower's shared-incumbent sub-sweeps, or from an
    unsound seed).  Pruning is incompatible with [resume]. *)

module type COMPACTABLE = sig
  type state

  val cost_if_compacted : metrics:Metrics.t -> state -> int -> int
  (** The DP objective the state would have after placing one variable
      on top of the assigned block — computed {e without} building the
      state (no allocation).  Must equal
      [mincost (materialise st h)] exactly. *)

  val materialise : metrics:Metrics.t -> state -> int -> state
  (** Place one variable on top of the assigned block (the winner of a
      cost pass; accounting goes to the materialisation counters). *)

  val mincost : state -> int
  (** Non-terminal nodes created so far (the DP objective). *)

  val free : state -> Varset.t
  (** Variables not yet assigned. *)
end

type costs = {
  cost_j_set : Varset.t;
  cost_upto : int;
  cost_table : (Varset.t, int) Hashtbl.t;
      (** [MINCOST⟨base, K⟩] for every computed [K] (including [∅]) *)
  cost_choice : (Varset.t, int) Hashtbl.t;
      (** for each [K ≠ ∅], a tight last-placed [h] of the Lemma 7
          recurrence — the backtracking pointers *)
}
(** The cost-table result: two integers per subset, no states.  It is
    state-independent, so it lives outside the functor and can be shared
    by every instance. *)

type progress = {
  p_layer : int;  (** the cardinality layer that just completed *)
  p_entries : (Varset.t * int * int) array;
      (** one [(K, MINCOST⟨K⟩, tight last-placed h)] triple per subset
          of the layer, in enumeration (Gosper) order *)
}
(** One completed cardinality layer of a sweep — everything a checkpoint
    needs to persist, and everything a resumed sweep needs back.  Like
    {!costs} it is state-independent: rebuilding the layer's states is a
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
    mincosts : (Varset.t, int) Hashtbl.t;
        (** [MINCOST⟨base, K⟩] for every computed [K] (including [∅]) *)
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
      {!Metrics.ambient}.  Intermediate layers are dropped eagerly (only
      [mincosts] survives), so peak state memory is two adjacent layers
      during the sweep and one — the returned [upto] layer — after.

      [cancel] (default {!Cancel.never}) is polled between cardinality
      layers: a fired token makes the sweep raise {!Cancel.Cancelled}
      instead of starting the next layer, so a deadline-expired run
      stops within one layer's work.  Wrap the call in {!Cancel.protect}
      for a typed [Error `Cancelled] instead of the exception.

      [on_layer] (default a no-op) fires at the same layer boundaries
      [cancel] is polled at, once per {e newly computed} layer — the
      checkpoint-emission hook.  An exception it raises aborts the sweep
      and propagates.  [resume] (default [[]]) replays previously
      completed layers [1..m] (consecutive, complete, validated): their
      triples preload the cost/choice tables, layer [m]'s states are
      rebuilt by replaying each subset's recorded chain over [base], and
      the sweep continues at [m+1] — bit-identical to an uninterrupted
      run under {!Engine.Seq} and {!Engine.Par} alike.

      [membudget] (default an {!Membudget.unbounded} context) accounts
      the packed bytes of every completed layer; with a budget and sink
      set, layers past the budget spill to disk and reload lazily when
      read back.  Results are unaffected — only residency changes. *)

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
    costs
  (** Pure cost-table mode: same sweep, but the final layer's states are
      never materialised and nothing but the integer tables is returned.
      Same validation and defaults as {!run}, including [on_layer] and
      [resume]. *)

  val reconstruct :
    ?trace:Ovo_obs.Trace.t ->
    ?metrics:Metrics.t ->
    base:S.state ->
    costs ->
    Varset.t ->
    S.state
  (** [reconstruct ~base ct k] materialises an optimal state for [K = k]
      by backtracking [ct.cost_choice] from [k] to [∅] and replaying the
      resulting placement sequence over [base] — [|k|] compactions
      total.  Requires [k ⊆ ct.cost_j_set] and [|k| ≤ ct.cost_upto]. *)

  val state_of : t -> Varset.t -> S.state
  (** The kept optimal state of a subset at cardinality [upto].  Raises
      {!Bound.Pruned_out} when a pruned sweep discarded it — the subset
      provably heads no ordering beating the incumbent. *)

  val mincost_of : t -> Varset.t -> int
  (** [MINCOST⟨base, K⟩]; raises {!Bound.Pruned_out} when pruned. *)

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
  (** Full run; the optimal state for [K = J].  A cost-only sweep
      followed by a backtrack {e directly over the packed layers} — the
      hashtable form of {!costs} is never built, at most one layer of
      states is live at any time, and with a budgeted [membudget]
      spilled layers are reloaded lazily (one fetch per cardinality), so
      this is the out-of-core entry point {!Fs.run} drives. *)
end
