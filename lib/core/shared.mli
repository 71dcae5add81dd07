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

type state = private {
  n : int;
  kind : Compact.kind;
  num_terminals : int;
  assigned : Varset.t;
  order_rev : int list;
  tables : int array array;  (** one table per root, indexed alike *)
  levels : Compact.level list;
      (** the node set, shared across roots, as in {!Compact.state} *)
  mincost : int;  (** distinct non-terminal nodes over all roots *)
  next_id : int;
}

val initial : Compact.kind -> Ovo_boolfun.Mtable.t array -> state
(** All tables must have the same arity and value alphabet; at least one
    root is required. *)

val of_truthtables : Compact.kind -> Ovo_boolfun.Truthtable.t array -> state
(** Boolean convenience wrapper. *)

val compact : metrics:Metrics.t -> state -> int -> state
(** One table compaction across all roots with a shared node set.
    Charges [table_cells] (one count per root per new cell) and
    [compactions] to [metrics]. *)

val materialise : metrics:Metrics.t -> state -> int -> state
(** Exactly {!compact} but with DP-winner accounting, for replaying a
    chain the DP elected: cells were already charged by the probe that
    elected each placement, so only [states_materialised]/
    [node_creations] move. *)

val compact_chain : metrics:Metrics.t -> state -> int array -> state

val free : state -> Varset.t
val order : state -> int list
val is_complete : state -> bool

val roots : state -> int array
(** Root ids of a complete state, one per input table. *)

val eval : state -> root:int -> int -> int
(** Evaluate output [root] of a complete state on an assignment code. *)

val check : state -> Ovo_boolfun.Mtable.t array -> bool
(** Semantic equivalence of every root against its table. *)

module State : Subset_dp.COMPACTABLE with type state = state
(** The shared state as the DP's state: one arena slice holds every
    root's table, back to back, and the sweep kernel is
    {!Compact.probe}/{!Compact.write}. *)

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
  ?cancel:Cancel.t ->
  ?metrics:Metrics.t ->
  ?membudget:Membudget.t ->
  ?prune:Bound.t ->
  Ovo_boolfun.Truthtable.t array ->
  result
(** Exact optimal ordering for the shared diagram (the FS dynamic
    program over shared states): visits all [2^n] subsets, [O*(m·3^n)]
    cells.  [engine]/[cancel]/[metrics] as in {!Fs.run}. *)

val minimize_mtables :
  ?trace:Ovo_obs.Trace.t ->
  ?kind:Compact.kind ->
  ?engine:Engine.t ->
  ?cancel:Cancel.t ->
  ?metrics:Metrics.t ->
  ?membudget:Membudget.t ->
  ?prune:Bound.t ->
  Ovo_boolfun.Mtable.t array ->
  result

val to_dot : state -> string
(** Graphviz rendering of a complete shared diagram (roots annotated). *)
