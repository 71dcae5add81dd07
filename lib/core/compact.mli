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
    bit positions of the cell index (smallest variable ↔ bit 0). *)

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
  table : int array;  (** [2^(n-|I|)] node ids *)
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

val compact : ?metrics:Metrics.t -> state -> int -> state
(** [compact st i] — see above.  Raises [Invalid_argument] if [i] is out
    of range or already assigned.  The input state is not mutated.
    Charges [table_cells], [compactions] and [node_creations] to
    [metrics], defaulting to {!Metrics.ambient}. *)

val width_if_compacted : ?metrics:Metrics.t -> state -> int -> int
(** The cost-only kernel of the two-pass DP: how many nodes
    [compact st i] {e would} create — the paper's [Cost_i] — computed by
    the same cell scan with no allocation: no new table, no level, no
    state, and the scan's {!Pair_table} is the domain's reused one.
    Charges [table_cells] (a probe does the work the theorems price) and
    [cost_probes].  Safe to call concurrently on shared frozen states
    from {!Engine.Par} workers and from systhreads. *)

val mincost_if_compacted : ?metrics:Metrics.t -> state -> int -> int
(** [st.mincost + width_if_compacted st i] — the DP objective of the
    candidate, without building it. *)

val materialise : ?metrics:Metrics.t -> state -> int -> state
(** Exactly {!compact}, but with DP-winner accounting: the candidate's
    cells were already charged by the {!width_if_compacted} probe that
    elected it, so this charges only [states_materialised] and
    [node_creations]. *)

val compact_chain : state -> int array -> state
(** Fold {!compact} over the variables of an array, left to right: the
    result is the state of the fully specified suborder.  [O(2^{n-|I|+1})]
    cells in total when the chain exhausts all free variables. *)

val width_of_last : before:state -> after:state -> int
(** Number of nodes created by the last compaction — the paper's
    [Cost_i(f, π)] for the newly placed variable (Lemma 3 guarantees this
    only depends on the set split, not on the suborders). *)

val push_level :
  Pair_table.t -> var:int -> first:int -> level list -> level list
(** [push_level pt ~var ~first levels] conses the nodes a scan over
    [pt] created — ids from [first], testing [var] — onto [levels] as
    one level; a scan that created no node adds none.  Call it before
    releasing [pt].  {!Shared} builds its levels with it too. *)

val iter_nodes : (int -> var:int -> lo:int -> hi:int -> unit) -> level list -> unit
(** [iter_nodes f levels] calls [f id ~var ~lo ~hi] on every node the
    levels list, most recent level first and in id order within one. *)

val free : state -> Varset.t
(** The unassigned variables [\[n\] ∖ I]. *)

val order : state -> int list
(** The achieved suborder [π[1], …, π[|I|]] (read-last first). *)

val is_complete : state -> bool
(** All variables assigned (the table has a single cell: the root). *)

val root : state -> int
(** Root node id of a complete state; raises [Invalid_argument] if the
    state is not complete. *)
