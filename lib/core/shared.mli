(** Multi-rooted (shared) decision diagrams — exact ordering optimisation
    for several functions at once.

    Real designs expose many outputs over the same inputs, represented as
    one shared diagram: a single node store, one root per output, with
    subfunctions common to several outputs stored once.  The paper's
    related work (Tani–Hamaguchi–Yajima [THY96]) studies exactly this
    multi-rooted setting; the FS dynamic program generalises verbatim —
    the only change is that a compaction step scans one table {e per
    root} against a {e shared} [NODE] set, so the objective counts each
    distinct subfunction once no matter how many outputs use it.

    Cost per compaction: [m · 2^(n-|I|-1)] cells for [m] roots — the DP
    remains [O*(m · 3^n)]. *)

type state = Compact.state
(** A multi-rooted {!Compact.state}: one table per root, back to back
    in its [table], over one node set.  {!Compact.compact},
    {!Compact.materialise}, {!Compact.compact_chain} and {!Subset_dp}
    serve it as they serve one root; [mincost] counts distinct
    non-terminal nodes over all roots. *)

val initial : Compact.kind -> Ovo_boolfun.Mtable.t array -> state
(** {!Compact.of_mtables}, after checking that all tables have the same
    arity and value alphabet and that there is at least one root;
    raises [Invalid_argument] otherwise. *)

val roots : state -> int array
(** Root ids of a complete state, one per input table. *)

val check : state -> Ovo_boolfun.Mtable.t array -> bool
(** Semantic equivalence of every root against its table. *)

type result = {
  mincost : int;  (** shared non-terminal count *)
  size : int;  (** plus reachable terminals *)
  order : int array;  (** optimal ordering, read-last first *)
  state : state;  (** the complete optimal state *)
}

val diagrams : state -> Diagram.t array
(** One per-root {!Diagram} view of a complete shared state (node arrays
    are copies; node ids — and hence sharing — are preserved across the
    views).  Enables per-output DOT export, serialisation and checking
    with the ordinary diagram tooling. *)

val of_state : state -> result
(** Package a complete shared state (any provenance) as a result. *)

val minimize :
  ?trace:Ovo_obs.Trace.t ->
  ?kind:Compact.kind ->
  ?engine:Engine.t ->
  ?metrics:Metrics.t ->
  Ovo_boolfun.Mtable.t array ->
  result
(** Exact optimal ordering for the shared diagram ({!Subset_dp.complete}
    over the multi-rooted state): visits all [2^n] subsets, [O*(m·3^n)]
    cells.  [engine]/[metrics] as in {!Fs.run}.  The quantum optimisers
    solve the same state: [Ovo_quantum.Opt_obdd.apply] over {!initial},
    packaged by {!of_state}. *)

val to_dot : state -> string
(** Graphviz rendering of a complete shared diagram (roots annotated). *)
