(** Exact ordering by best-first A* search over the subset lattice.

    The FS dynamic program unconditionally visits all [2^n] subsets.
    Following the exact-minimisation line of Ebendt/Drechsler, the same
    lattice can be searched best-first: a node is a bottom-block set [I]
    with [g(I) = MINCOST_I] (realised by a compaction state) and an
    admissible, consistent heuristic

    [h(I) = #(support(f) ∖ I)]

    — every variable the function essentially depends on labels at least
    one node in any diagram, so at least that many nodes remain above the
    block.  A* therefore returns the exact optimum while expanding only
    the subsets whose optimistic total beats the optimum: on structured
    functions this is a small fraction of [2^n] (the benches quantify
    it); on dense random functions it degrades towards full FS with a
    queue on top.

    Memory note: like FS, live states keep their tables; the closed set
    stores only costs. *)

type result = {
  mincost : int;
  order : int array;  (** read-last first, as everywhere *)
  expanded : int;  (** subsets popped from the queue *)
  generated : int;  (** successor states created *)
  subsets_total : int;  (** [2^n], for the pruning ratio *)
}

val run :
  ?trace:Ovo_obs.Trace.t ->
  ?metrics:Ovo_core.Metrics.t ->
  ?kind:Ovo_core.Compact.kind ->
  Ovo_boolfun.Truthtable.t ->
  result
(** Exact minimisation; agrees with {!Ovo_core.Fs.run} by construction
    (the tests enforce it). *)
