(** The node store of [Bdd], [Zdd] and [Mtbdd], which differ only in
    their elision rule, the leaves they allow and their caches.

    Ids index the arrays directly.  A leaf sits at level [n] (below
    every variable) with its value in its [lo] slot; ids 0 and 1 are the
    leaves 0 and 1, and the leaf table is never collected.  Inner nodes
    are hash-consed in one table per level keyed by [(lo, hi)].  Level 0
    is the root side.  [Bdd]'s reordering rewrites the arrays and the
    per-level tables in place, hence the exposed record. *)

type t = {
  n : int;
  level_var : int array;  (** level -> variable (read-first order) *)
  var_level : int array;  (** variable -> level *)
  mutable levels : int array;  (** id -> level *)
  mutable los : int array;
  mutable his : int array;
  mutable next : int;  (** the next free id *)
  unique : (int * int, int) Hashtbl.t array;  (** per level: (lo, hi) -> id *)
  leaves : (int, int) Hashtbl.t;  (** value -> id *)
}

val invert : string -> int -> int array -> int array
(** [invert fn n order]: the variable -> level map of an ordering of [n]
    variables; raises [Invalid_argument] prefixed [fn] unless [order] is
    a permutation of [0..n-1]. *)

val create : string -> ?order:int array -> int -> t
(** [create name ?order n] (default identity order); messages are
    prefixed [name ^ ".create"]. *)

val level : t -> int -> int
val lo : t -> int -> int
val hi : t -> int -> int
val is_leaf : t -> int -> bool
val leaf_value : t -> int -> int

val leaf : t -> int -> int
(** The id of the leaf carrying a value. *)

val node : t -> int -> int -> int -> int
(** [node s level lo hi], hash-consed; the caller elides first. *)

val iter_reachable : t -> int list -> (int -> unit) -> unit
(** Each id reachable from the roots once, leaves included, parents
    before children, lo first. *)

val size : t -> int list -> int
(** Ids reachable from the roots, leaves included. *)

val node_count : t -> int
(** Ids allocated (live and garbage), leaves included. *)

val import :
  t -> string -> mk:(int -> int -> int -> int) -> Ovo_core.Diagram.t -> int
(** [import s fn ~mk d] rebuilds [d] bottom-up through the caller's
    reducing [mk]; terminal [i] becomes leaf [i].  Raises
    [Invalid_argument] prefixed [fn] on an arity or ordering mismatch. *)

val of_mtable :
  t ->
  string ->
  kind:Ovo_core.Compact.kind ->
  mk:(int -> int -> int -> int) ->
  Ovo_boolfun.Mtable.t ->
  int
(** The table's diagram under the store's order (one compaction chain),
    {!import}ed; raises [Invalid_argument (fn ^ ": arity mismatch")]. *)

val to_dot : t -> graph:string -> prefix:string -> int -> string
(** Graphviz: inner nodes labelled [prefix] and their variable, leaves
    by their value. *)
