(** A multi-terminal BDD (MTBDD / ADD) package — decision diagrams with
    integer leaves, the variant the paper's Remark 2 covers ("the
    algorithm FS* works even when the function is multi-valued …
    producing a variant of an OBDD (called an MTBDD) of minimum size").

    Terminals carry arbitrary OCaml [int] values; the node store,
    which hash-conses leaves and inner nodes, and the reduction (a node
    with equal children is elided) are {!Bdd}'s.  Arithmetic is provided
    through a generic memoised [apply]. *)

type man
type t

val create : ?order:int array -> int -> man
(** As {!Bdd.create}: [order] is the read-first level-to-variable map. *)

val nvars : man -> int

val terminal : man -> int -> t
(** The constant diagram of a value. *)

val value : man -> t -> int option
(** [Some v] when the diagram is the constant [v]. *)

val equal : t -> t -> bool
(** Canonical semantic equality. *)

val select : man -> int -> t -> t -> t
(** [select man v if_false if_true] tests variable label [v] once. *)

val apply1 : man -> (int -> int) -> t -> t
(** Map a function over the terminals (memoised within the call). *)

val apply2 : man -> (int -> int -> int) -> t -> t -> t
(** Pointwise combination (Bryant's apply; memoised within the call). *)

val add : man -> t -> t -> t
val max_ : man -> t -> t -> t
val min_ : man -> t -> t -> t
(** Common [apply2] instances with a persistent cache. *)

val restrict : man -> t -> var:int -> bool -> t

val eval : man -> t -> int -> int
(** Value on an assignment code. *)

val of_mtable : man -> Ovo_boolfun.Mtable.t -> t
(** The canonical MTBDD of a table (arity must match) under the
    manager's ordering: one compaction chain, {!import}ed. *)

val to_mtable : man -> values:int -> t -> Ovo_boolfun.Mtable.t
(** [values] bounds the terminal alphabet of the output table; raises
    [Invalid_argument] if some leaf falls outside [0..values-1]. *)

val import : man -> Ovo_core.Diagram.t -> t
(** Re-hash-cons a (multi-terminal, BDD-rule) diagram produced by the
    optimiser; terminal id [i] becomes value [i].  Ordering must match. *)

val size : man -> t -> int
(** Reachable nodes, distinct terminals included. *)

val to_dot : man -> t -> string
