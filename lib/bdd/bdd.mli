(** A from-scratch reduced-ordered-BDD package (unique tables, hash-consed
    [mk], memoised [ite]), in the style of Brace–Rudell–Bryant, with
    {e dynamic reordering}: adjacent level swaps in place, and Rudell
    sifting over the live graph.  Its node store (orderings, node
    arrays, one unique table per level, leaves, reachability, import,
    dot) is the one {!Zdd} and {!Mtbdd} use; this package adds the BDD
    elision rule (a node with equal children is elided), [ite] with its
    cache, and reordering.

    This is the substrate the ordering optimiser serves: once
    [Ovo_core.Fs] (or a heuristic) has produced a good variable ordering,
    a manager created with that ordering, or reordered to it with
    {!set_order}, represents and manipulates the function at the
    minimum size.

    A manager owns [n] variables.  Levels run from 0 (root side, tested
    first) to [n-1]; the manager's {e ordering} maps level → variable
    label.  All public operations speak in variable labels and assignment
    codes (bit [j] of a code = variable [j]), so client code is
    independent of the ordering in force.

    Real packages (CUDD, BuDDy) reorder a populated manager without
    rebuilding client handles, and so does this one: {!swap_levels}
    exchanges two adjacent levels by local node surgery, and {!sift}
    runs the classical sifting loop (move each variable through all
    positions by swaps, keep the best) over the protected roots.

    The crucial invariant making in-place swaps sound: a swap preserves
    the {e function} of every node id — updated level-[l] nodes keep
    their ids with rewritten children; nodes of both levels that do not
    interact move between the levels unchanged.  Distinct live nodes
    always represent distinct functions (canonicity), so the rebuilt
    unique tables cannot collide, client handles stay valid, and even
    memoised operation caches survive (they relate ids, and ids keep
    their functions).

    Handles are only as alive as the nodes they reach: {!protect} roots
    you intend to keep across reorderings so {!sift} can measure what
    matters.  Dead nodes are left as garbage (no reference counting)
    until {!compress}; {!live_size} reports the reachable count. *)

type man
(** A mutable manager: node store, [ite] cache, protected roots. *)

type t
(** A BDD handle, valid for the manager that created it. *)

val create : ?order:int array -> int -> man
(** [create n] makes a manager with variables [0..n-1].  [order], when
    given, is the {e read-first} ordering: level [l] tests variable
    [order.(l)] (default identity).  Note this is the reverse of the
    optimiser's read-last-first arrays; convert with
    {!Ovo_core.Eval_order.read_first}. *)

val nvars : man -> int
val order : man -> int array
(** The read-first ordering in force (copy; changes under swaps and
    sifting). *)

val node_count : man -> int
(** Nodes allocated so far (live + garbage), terminals included — a
    growth diagnostic; compare with {!live_size} to decide when to
    {!compress}. *)

val bfalse : man -> t
val btrue : man -> t
val var : man -> int -> t
(** The projection function of a variable label (valid under any
    current order). *)

val equal : t -> t -> bool
(** Constant-time semantic equality (canonicity). *)

val is_false : man -> t -> bool
val is_true : man -> t -> bool

val not_ : man -> t -> t
val and_ : man -> t -> t -> t
val or_ : man -> t -> t -> t
val xor_ : man -> t -> t -> t
val imp : man -> t -> t -> t
val iff : man -> t -> t -> t
val ite : man -> t -> t -> t -> t
(** Boolean connectives; memoised, [O(|f|·|g|·|h|)] worst case. *)

val restrict : man -> t -> var:int -> bool -> t
(** Cofactor by a variable label. *)

val exists : man -> int list -> t -> t
val forall : man -> int list -> t -> t
(** Quantification over variable labels. *)

val compose_var : man -> t -> var:int -> t -> t
(** [compose_var man f ~var g] is [f] with [var] substituted by the
    function [g] (Shannon: [ite g f|var=1 f|var=0]) — the building block
    of relational products and variable renaming. *)

val support : man -> t -> int list
(** Variable labels the function depends on, ascending. *)

val eval : man -> t -> int -> bool
(** Evaluate on an assignment code. *)

val satcount : man -> t -> float
(** Number of satisfying assignments over all [n] variables (float to
    allow [n] beyond 62). *)

val sat_one : man -> t -> (int * bool) list option
(** A satisfying partial assignment [(variable, value)] (variables not
    listed are free), or [None] for the constant-false BDD. *)

val size : man -> t -> int
(** Nodes reachable from the root, terminals included (the
    paper-convention diagram size). *)

val shared_size : man -> t list -> int
(** Nodes reachable from any of the roots, counted once — the size of
    the shared multi-rooted diagram these functions form. *)

val of_truthtable : man -> Ovo_boolfun.Truthtable.t -> t
(** The canonical BDD of a function (arity must match) under the
    ordering in force at call time: one compaction chain
    ({!Ovo_core.Eval_order.state}) whose diagram is then {!import}ed. *)

val to_truthtable : man -> t -> Ovo_boolfun.Truthtable.t
(** Label-indexed semantics — invariant under reordering. *)

val of_expr : man -> Ovo_boolfun.Expr.t -> t
(** Compile a formula bottom-up with the connectives above. *)

val import : man -> Ovo_core.Diagram.t -> t
(** Re-hash-cons a diagram produced by the optimiser into this manager.
    The diagram must be a 2-terminal BDD and its ordering must agree
    with the manager's; raises [Invalid_argument] otherwise. *)

val cube_cover : man -> t -> (int * bool) list list
(** A disjoint cube cover read off the 1-paths of the diagram: each cube
    is a partial assignment [(variable, value)] whose conjunction implies
    the function, the cubes are pairwise disjoint, and their union is
    exactly the on-set.  At most one cube per 1-path, so the cover is
    small whenever the diagram is. *)

val to_expr : man -> t -> Ovo_boolfun.Expr.t
(** The {!cube_cover} as a DNF formula ([Expr.Const false] for the empty
    cover). *)

val to_dot : man -> t -> string
(** Graphviz rendering of the sub-diagram rooted here. *)

(** {1 Dynamic reordering} *)

val protect : man -> t -> unit
(** Register a root for sifting/size accounting (idempotent). *)

val protected : man -> t list

val live_size : man -> int
(** [shared_size] of the protected roots: nodes reachable from them,
    terminals included. *)

val swap_levels : man -> int -> unit
(** [swap_levels man l] exchanges levels [l] and [l+1] in place;
    raises [Invalid_argument] when [l+1] is out of range.  All handles
    keep their functions. *)

val sift : man -> unit
(** Rudell sifting on the protected roots: each variable (fattest level
    first) is moved through every position by adjacent swaps and left
    where {!live_size} was smallest; passes repeat until no improvement,
    at most 4 passes. *)

val set_order : man -> int array -> unit
(** Reorder to an explicit read-first ordering (bubble-sort of swaps) —
    e.g. one produced by {!Ovo_core.Fs}. *)

val compress : man -> unit
(** Garbage collection: drops every node not reachable from the
    protected roots from the unique tables (swaps and discarded
    intermediate results leave garbage behind, and table size is what
    swaps pay for).  Handles under a protected root remain valid;
    handles to collected nodes must not be used again — protect what
    you keep. *)

val check_invariants : man -> bool
(** Test hook: unique tables are consistent, children are below parents,
    no two live nodes share (level, lo, hi). *)
