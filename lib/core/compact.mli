(** Table compaction — the primitive of the Friedman–Supowit dynamic
    program (paper Sec. 2.3.1 and the [COMPACT] function of algorithm
    [FS*] in Appendix D).

    A {!state} materialises the quadruple the paper calls
    [FS(⟨I₁,…,I_m⟩)] for the assigned set [I = I₁ ∪ … ∪ I_m]:

    - [TABLE_I]: one cell per assignment [b] to the unassigned variables,
      holding the id of the diagram node for the subfunction
      [f|_{x_{[n]∖I} = b}];
    - [NODE_I]: the created nodes, as a list of {!level}s, most recent
      first.  The paper keys this set by [(var, lo, hi)] — the [var]
      component implements its prose definition of node equivalence
      ([var(u) = var(v)] is required; the pseudo-code's children-only key
      would wrongly merge distinct subfunctions).  Yet computing
      [MINCOST] never consults [NODE_I]: a compaction w.r.t. a free
      variable [i] looks up keys [(i, lo, hi)], and none can be in
      [NODE_I] while [i] is free.  This freshness argument is why one
      table per scan suffices: a compaction deduplicates only its own
      scan's [(lo, hi)] pairs, in a reused {!Pair_table}, and conses one
      level of new nodes onto its parent's list.  States share their
      prefix's levels, and no node set is ever copied;
    - [MINCOST_I]: the number of non-terminal nodes created so far, i.e.
      the minimum achievable size of the bottom [|I|] levels given the
      segment constraints accumulated so far;
    - the suborder [π] achieved (the paper keeps it implicitly).

    [compact st i] performs one table compaction with respect to variable
    [i]: it produces the state for assigned set [I ∪ {i}] in which [i] is
    read immediately above the variables of [I] — the paper's
    [FS(⟨I, {i}⟩)] from [FS(⟨I⟩)].  The cost is linear in the size of the
    new table (half the old one), as the complexity analysis requires.

    Table indexing: the unassigned variables, sorted ascending, map to the
    bit positions of the cell index (smallest variable ↔ bit 0).

    A state may have several roots, one table each, for the
    multi-rooted diagrams of {!Shared} ([THY96]): the tables lie back to
    back in [table], the root index above the free variables' bits, so
    a compaction scans them in turn against one shared node set and
    every function below serves one root or many alike. *)

type kind =
  | Bdd  (** delete nodes with [lo = hi] (also the MTBDD rule) *)
  | Zdd  (** delete nodes with [hi] = terminal 0 (zero-suppression) *)

type level = {
  var : int;  (** the variable every node of the level tests *)
  first : int;  (** id of the level's first node *)
  pairs : int array;
      (** children of ids [first, first+1, …]: node [first + j] has
          [lo = pairs.(2j)] and [hi = pairs.(2j+1)] *)
}
(** The nodes one compaction created, in id order. *)

type state = private {
  n : int;  (** total number of variables *)
  kind : kind;
  num_terminals : int;  (** terminal ids are [0 .. num_terminals-1] *)
  assigned : Varset.t;  (** the set [I] *)
  order_rev : int list;  (** achieved suborder, most recent first; so
                             [List.rev order_rev] is [π[1], …, π[|I|]] *)
  table : int array;
      (** [roots · 2^(n-|I|)] node ids: root [j]'s table is the block
          starting at [j · 2^(n-|I|)] *)
  levels : level list;
      (** [NODE_I], most recent level first; a compaction that creates
          no node adds no level *)
  mincost : int;
  next_id : int;
}

val initial : kind -> Ovo_boolfun.Mtable.t -> state
(** The paper's [FS(∅)]: [TABLE_∅] is the truth table itself (cells are
    terminal ids), [NODE_∅] is empty, [MINCOST_∅ = 0]. *)

val of_truthtable : kind -> Ovo_boolfun.Truthtable.t -> state
(** Boolean convenience wrapper around {!initial} (two terminals). *)

val of_mtables : kind -> Ovo_boolfun.Mtable.t array -> state
(** [FS(∅)] of a multi-rooted diagram: root [j]'s table is [mts.(j)].
    Every table must have [mts.(0)]'s arity and value alphabet, and
    there must be at least one; {!Shared.initial} checks both. *)

val compact : metrics:Metrics.t -> state -> int -> state
(** [compact st i] — see above.  Raises [Invalid_argument] if [i] is out
    of range or already assigned.  The input state is not mutated.
    Charges [table_cells], [compactions] and [node_creations] to
    [metrics]. *)

val width_if_compacted : metrics:Metrics.t -> state -> int -> int
(** The cost-only kernel of the two-pass DP: how many nodes
    [compact st i] {e would} create — the paper's [Cost_i] — computed by
    the same cell scan with no allocation: no new table, no level, no
    state, and the scan's {!Pair_table} is the domain's reused one.
    Charges [table_cells] (a probe does the work the theorems price) and
    [cost_probes].  Safe to call concurrently on shared frozen states
    from {!Engine.Par} workers and from systhreads. *)

val materialise : metrics:Metrics.t -> state -> int -> state
(** Exactly {!compact}, but with DP-winner accounting, for replaying a
    chain the DP elected: the cells were already charged by the probe
    that elected each placement, so this charges only
    [states_materialised] and [node_creations]. *)

(** {1 The sweep kernel}

    {!Subset_dp} keeps no [state] in its sweep: a subset's state there is
    its [mincost] and [next_id] plus a slice of an {!Arena} layer, laid
    out as [table] is.  These are the scans of {!width_if_compacted} and
    {!materialise} over such slices, with the same charges.  The slice
    compacted w.r.t. the variable at bit [bit] of its index holds ids
    below [next_id]. *)

val load : state -> Arena.layer -> int -> unit
(** [load st l r] writes [st.table] as slice [r] of [l]. *)

val probe :
  metrics:Metrics.t ->
  kind ->
  Arena.layer ->
  int ->
  bit:int ->
  next_id:int ->
  int
(** [probe kind l r ~bit ~next_id]: the number of nodes compacting
    slice [r] of [l] would create.  It records the scan's pair set only
    and writes nothing.  Charges [table_cells] and [cost_probes]. *)

val write :
  metrics:Metrics.t ->
  kind ->
  Arena.layer ->
  int ->
  Arena.layer ->
  int ->
  bit:int ->
  next_id:int ->
  int
(** [write kind src r dst dr ~bit ~next_id] writes the compaction of
    slice [r] of [src] as slice [dr] of [dst] and returns the number of
    nodes it creates, whose ids run from [next_id].  Charges
    [states_materialised] and [node_creations]. *)

val compact_chain : metrics:Metrics.t -> state -> int array -> state
(** Fold {!compact} over the variables of an array, left to right: the
    result is the state of the fully specified suborder.  [O(2^{n-|I|+1})]
    cells in total when the chain exhausts all free variables. *)

val weighted_cost : weights:int array -> state -> int
(** [Σ weights.(var) · width] over the state's levels: the objective of
    the weighted ordering problem ({!Fs.run} [~weights]), which Lemma 3
    lets the DP minimise level by level.  Unit weights give [mincost]. *)

val iter_nodes : (int -> var:int -> lo:int -> hi:int -> unit) -> level list -> unit
(** [iter_nodes f levels] calls [f id ~var ~lo ~hi] on every node the
    levels list, most recent level first and in id order within one. *)

val free : state -> Varset.t
(** The unassigned variables [\[n\] ∖ I]. *)

val roots : state -> int
(** The number of roots: [Array.length table / 2^(n-|I|)]. *)

val order : state -> int list
(** The achieved suborder [π[1], …, π[|I|]] (read-last first). *)

val is_complete : state -> bool
(** All variables assigned (the table has one cell per root: the
    root's id). *)

val root : state -> int
(** Root node id of a complete single-rooted state; raises
    [Invalid_argument] if the state is not complete or has several
    roots ({!Shared.roots} reads those). *)
