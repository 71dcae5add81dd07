(** Heuristic-seeded pruning contexts — the injected bound provider.

    The branch-and-bound DP in [lib/core] consumes a {!Ovo_core.Bound.t}
    but must not depend on this library (core sits below ordering), so
    callers that want a heuristic-seeded incumbent build it here and
    pass it down: sifting supplies an achievable upper bound,
    {!Ovo_core.Bound} supplies the matching admissible lower bound, and
    the solve stays exact while skipping every state the pair proves
    hopeless. *)

val bound :
  ?trace:Ovo_obs.Trace.t ->
  ?kind:Ovo_core.Compact.kind ->
  Ovo_boolfun.Truthtable.t ->
  Ovo_core.Bound.t
(** A ready pruning context for {!Ovo_core.Fs.run}: counting lower
    bound plus a sifting seed — cheap ([O(n · 2^n)] cells per pass
    against the exact DP's [O*(3^n)]) and usually close to optimal. *)

val weighted_bound :
  ?trace:Ovo_obs.Trace.t ->
  ?kind:Ovo_core.Compact.kind ->
  weights:int array ->
  Ovo_boolfun.Mtable.t ->
  Ovo_core.Bound.t
(** For {!Ovo_core.Fs.run} [~weights]: the sifting order re-priced
    under the weighted objective (both directions, cheaper one kept)
    seeds the weighted counting bound. *)
