(** A from-scratch ZDD (zero-suppressed BDD) package — Minato's structure
    for families of sets, the variant the paper's Remark 2 minimises.

    A manager owns element labels [0..n-1]; a ZDD represents a family of
    subsets of them.  Node convention: the root carries the smallest
    element, a node's [hi] child holds the sets containing its element,
    and the zero-suppression rule ([hi] = empty family ⇒ node elided)
    keeps sparse families compact.  The usual family algebra is provided
    (union, intersection, difference, join, cofactors, counting).  The
    node store is {!Bdd}'s; only the elision rule, the operation cache
    and the algebra are this package's own. *)

type man
type t

val create : ?order:int array -> int -> man
(** Manager for element labels [0..n-1].  [order], when given, is the
    read-first element ordering: the root level tests [order.(0)]
    (default identity).  Orderings from the exact optimiser convert with
    [Ovo_core.Eval_order.read_first]. *)

val order : man -> int array
(** The read-first ordering in force (copy). *)

val empty : man -> t
(** The empty family [∅]. *)

val base : man -> t
(** The family [{∅}] containing just the empty set. *)

val singleton : man -> int list -> t
(** [{S}] for one set of element labels. *)

val of_family : man -> int list list -> t
(** The family containing exactly the given sets (duplicates merge). *)

val to_family : man -> t -> int list list
(** All member sets, each sorted ascending, in lexicographic order. *)

val equal : t -> t -> bool
(** Canonical: constant-time semantic equality. *)

val union : man -> t -> t -> t
val inter : man -> t -> t -> t
val diff : man -> t -> t -> t

val join : man -> t -> t -> t
(** [{a ∪ b : a ∈ F, b ∈ G}] — Minato's product. *)

val change : man -> t -> int -> t
(** Toggle an element's membership in every set of the family. *)

val subset0 : man -> t -> int -> t
(** Sets not containing the element (element removed from the universe
    view, as in the standard operation). *)

val subset1 : man -> t -> int -> t
(** Sets containing the element, with the element removed. *)

val count : man -> t -> float
(** Number of member sets. *)

val count_by_size : man -> t -> float array
(** [count_by_size man t].(k) = number of member sets of cardinality
    [k]; length [n + 1] for a manager over [n] elements.  The family's
    size generating function, evaluated without enumeration. *)

val mem : man -> t -> int list -> bool
(** Membership of one set. *)

val size : man -> t -> int
(** Reachable nodes, terminals included. *)

val node_count : man -> int

val import : man -> Ovo_core.Diagram.t -> t
(** Re-hash-cons a ZDD-rule diagram produced by the optimiser into this
    manager (two terminals; ordering must agree). *)

val meet : man -> t -> t -> t
(** [{a ∩ b : a ∈ F, b ∈ G}] — the dual of {!join} (Knuth's [meet]). *)

val maximal : man -> t -> t
(** The sets of the family not strictly contained in another member. *)

val minimal : man -> t -> t
(** The sets of the family not strictly containing another member. *)

val of_truthtable : man -> Ovo_boolfun.Truthtable.t -> t
(** Characteristic-function view: the family of the sets whose
    characteristic vectors satisfy the function — the ZDD-rule
    compaction chain under the manager's ordering, {!import}ed. *)

val to_truthtable : man -> t -> Ovo_boolfun.Truthtable.t

val to_dot : man -> t -> string
