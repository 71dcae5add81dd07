(** Random-restart ordering search — the weakest baseline: sample [m]
    uniform orderings ([m] = 100) and keep the best.  Its gap to the exact optimum
    calibrates how much structure the smarter methods exploit.  Samples
    are priced through one {!Chain}, which reuses whatever prefix and
    suffix a sample shares with the previous one. *)

val run :
  ?metrics:Ovo_core.Metrics.t ->
  ?kind:Ovo_core.Compact.kind ->
  rng:Random.State.t ->
  Ovo_boolfun.Mtable.t ->
  Chain.result
(** The identity ordering is always included so the result never loses
    to "no search at all". *)
