(** Pricing candidate orders by Lemma 3 — the one evaluator behind every
    local search.

    The width of a level depends only on its variable and on the {e set}
    of variables below it (Lemma 3).  So a candidate that differs from
    the current order only at positions [lo..hi] keeps the widths of
    every level below [lo] and above [hi], and pricing it needs the
    current order's prefix state at [lo] plus a chain over [lo..hi]:
    about [2^(n-lo)] table cells instead of the [2^n] of a full
    {!Ovo_core.Compact.compact_chain}.

    A chain holds the current order, its per-level widths and its prefix
    states (the state after compacting the first [k] variables).  Prefix
    states are extended lazily and dropped from the lowest changed
    position on {!accept}.  Every compaction and probe is charged to the
    chain's {!Ovo_core.Metrics.t}.  Every price is exactly the
    [mincost] of the full compaction chain of the candidate from the
    chain's base (qchecked in [test/test_chain.ml]).

    {!result} is the one answer every ordering heuristic gives. *)

type result = { mincost : int; order : int array }
(** An order ([order.(0)] read last) and the [mincost] of its diagram. *)

type t

val create :
  metrics:Ovo_core.Metrics.t ->
  kind:Ovo_core.Compact.kind ->
  ?initial:int array ->
  Ovo_boolfun.Mtable.t ->
  t
(** [create ~metrics ~kind ?initial mt] prices [initial] (default the
    identity; the array is copied) with one full chain from
    [Compact.initial kind mt], the base of every later price. *)

val cost : t -> int
(** [mincost] of the current order. *)

val order : t -> int array
(** A copy of the current order ([order.(0)] read last). *)

val result : t -> result
(** The current order and its cost. *)

val widths : t -> int array
(** A copy of the current per-level widths: [widths.(j)] nodes test
    [order.(j)]. *)

val prefix : t -> int -> Ovo_core.Compact.state
(** [prefix t k] is the state after compacting [order.(0..k-1)] from the
    base, extended lazily from the deepest prefix held. *)

val price_move : t -> from:int -> to_:int -> int
(** The cost of [Perm.move (order t) ~from ~to_]: the prefix at
    [min from to_] plus a chain up to [max from to_]. *)

val price_sift : t -> from:int -> int array
(** [price_sift t ~from].(target) is [price_move t ~from ~to_:target] for
    every target ([t]'s own cost at [from]).  The upward targets share
    one chain plus one {!Ovo_core.Compact.width_if_compacted} probe
    each; each downward target gets one short chain from its own
    prefix. *)

val price_window : t -> start:int -> int array -> int
(** [price_window t ~start block] prices the order whose positions
    [start .. start+w-1] hold [block], a rearrangement of the variables
    the current order has there: the prefix at [start] plus at most [w]
    compactions. *)

val accept : t -> int array -> unit
(** Make a permutation the current order: the prefix states above its
    lowest changed position are dropped and the changed levels are
    recompacted, which re-extends the prefix to its highest changed
    position. *)

val price : t -> int array -> int
(** [price t order] accepts [order] and returns its cost: the chain
    resumes from the longest prefix [order] shares with the last order
    priced or accepted, and reuses the widths above the last position
    where they differ. *)
