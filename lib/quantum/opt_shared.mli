(** Quantum (simulated) joint optimisation of multi-rooted diagrams:
    any {!Opt_obdd.subroutine} — the same divide-and-conquer, quantum
    minimum finding and composition tower — run over a multi-rooted
    {!Ovo_core.Shared} state, minimising the shared node count of
    several functions at once. *)

val minimize :
  ?kind:Ovo_core.Compact.kind ->
  ctx:Opt_obdd.ctx ->
  Opt_obdd.subroutine ->
  Ovo_boolfun.Truthtable.t array ->
  Ovo_core.Shared.result * float
(** Jointly minimise the shared diagram of the given functions; returns
    the result and the modeled quantum cost. *)

val minimize_mtables :
  ?kind:Ovo_core.Compact.kind ->
  ctx:Opt_obdd.ctx ->
  Opt_obdd.subroutine ->
  Ovo_boolfun.Mtable.t array ->
  Ovo_core.Shared.result * float
