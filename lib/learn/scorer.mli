(** Scoring-based static variable ordering (Kimura–Fujita–Wille style).

    One pass of {!Features} extraction, a weighted score per variable,
    then greedy root-first placement: the next variable is the unplaced
    one maximising [base score + attraction], where attraction pulls
    variables co-sensitive with recently placed ones (geometric recency
    decay).  No diagram is ever probed during placement, so the orderer
    costs [O(n^2 2^n)] feature extraction plus [O(n^2)] placement —
    cheap enough to run on every serve request — and the single final
    {!Ovo_core.Eval_order.mincost} evaluation prices the result.

    Weights are a learnable model: {!Weights.load} reads a JSON file
    (produced by hand or fitted against an [ovo dataset] corpus) and
    {!Weights.default} is a sane built-in.  The scorer feeds three
    consumers: a portfolio member ({!portfolio_member}), a free first
    incumbent for branch-and-bound pruning ({!bound}, {!seeded_bound})
    and the daemon's deadline-tight [scored] fast path. *)

module Weights : sig
  type t = {
    influence : float;
    polarity : float;
    spectral : float;
    occurrence : float;
    cosens : float;
    decay : float;  (** recency decay of the attraction term, in [0,1] *)
  }

  val default : t

  val to_json : t -> Ovo_obs.Json.t

  val of_json : Ovo_obs.Json.t -> (t, string) result
  (** Accepts [{"version":1,"weights":{...},"decay":d}]; absent fields
      keep their {!default} value, non-numeric ones are errors, unknown
      ones (such as the [adjacency] and [proximity] weights older models
      carry) are ignored. *)

  val load : string -> (t, string) result
  (** Read and parse a model file. *)

  val save : string -> t -> unit
end

val place : ?weights:Weights.t -> Features.t -> int array
(** Pure placement on extracted features; returns the repository-
    convention ordering ([order.(0)] read last, highest score at the
    root).  Always a valid permutation of [0 .. n-1]; ties break to the
    smallest variable index, so placement is deterministic. *)

val order : ?weights:Weights.t -> Ovo_boolfun.Truthtable.t -> int array
(** {!Features.of_truthtable} + {!place}. *)

val run :
  ?trace:Ovo_obs.Trace.t ->
  ?metrics:Ovo_core.Metrics.t ->
  ?weights:Weights.t ->
  ?kind:Ovo_core.Compact.kind ->
  Ovo_boolfun.Truthtable.t ->
  Ovo_ordering.Chain.result
(** Extract, place, evaluate once (span [learn.score]). *)

val upper :
  ?trace:Ovo_obs.Trace.t ->
  ?weights:Weights.t ->
  ?kind:Ovo_core.Compact.kind ->
  Ovo_boolfun.Truthtable.t ->
  Ovo_core.Bound.upper
(** The scored ordering's evaluated cost as an achievable upper bound
    ([ub_source = "scored"]). *)

val bound :
  ?trace:Ovo_obs.Trace.t ->
  ?weights:Weights.t ->
  ?kind:Ovo_core.Compact.kind ->
  Ovo_boolfun.Truthtable.t ->
  Ovo_core.Bound.t
(** A pruning context seeded from the scorer {e alone} — the free first
    incumbent, with no sifting probe spent.  Exactness is unaffected
    (the seed is achievable); [BENCH_learn.json] gates that it still
    prunes states on hwb. *)

val seeded_bound :
  ?trace:Ovo_obs.Trace.t ->
  ?weights:Weights.t ->
  ?kind:Ovo_core.Compact.kind ->
  Ovo_boolfun.Truthtable.t ->
  Ovo_core.Bound.t
(** What [--prune] uses: the scored incumbent first (free), then
    sifting tightens it; the seed records whichever source won, ties
    going to the scorer. *)

val seeded_bound_of :
  kind:Ovo_core.Compact.kind ->
  scored:Ovo_ordering.Chain.result ->
  sifting:Ovo_ordering.Chain.result ->
  Ovo_boolfun.Mtable.t ->
  Ovo_core.Bound.t
(** {!seeded_bound}'s context from a scored ({!run}) and a sifting
    result already in hand, under the same tie rule. *)

val portfolio_member :
  ?weights:Weights.t ->
  ?kind:Ovo_core.Compact.kind ->
  unit ->
  string
  * (metrics:Ovo_core.Metrics.t -> Ovo_boolfun.Truthtable.t ->
     Ovo_ordering.Chain.result)
(** The [("scored", run)] pair {!Ovo_ordering.Portfolio.run} accepts as
    an extra member, charging the portfolio's [metrics] — injected by
    callers that sit above both libraries, mirroring how
    {!Ovo_ordering.Seed} injects bounds into the core. *)
