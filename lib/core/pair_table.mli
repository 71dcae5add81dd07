(** The dedup table of one compaction scan.

    A compaction w.r.t. a free variable [i] reads each cell's two
    cofactor children [(lo, hi)] and creates one node per distinct
    unelided pair.  Nothing else needs looking up: a node keyed
    [(i, lo, hi)] cannot already exist, because [i] was free until this
    scan (the freshness argument of {!Compact}).  So one scan needs only
    a set of the pairs it has met, and that set starts empty.

    This is that set: an open-addressing table of [(lo, hi)] pairs with
    linear probing.  Each pair gets the index [0, 1, …] of its first
    sighting, which {!compact} adds to the first fresh node id.  A slot
    is live only while it carries the scan's stamp, so a claim clears
    the whole table in O(1) by bumping the stamp.

    Each domain owns one table and reuses it across scans; a scan
    {!claim}s it with an atomic exchange.  Systhreads of one domain (the
    workers of [ovo serve]) can be preempted mid-scan, so a scan that
    finds the domain's table taken gets a private one instead: no two
    concurrent scans ever share a table.  A claim sizes the table for
    the pairs the scan can produce, [min(cells, next_id²)], not for its
    cells alone: the first scans of a large table meet only a few
    children.  The domain's long-lived table is then only as large as
    the largest pair set one of its scans could produce. *)

type t

val claim : zdd:bool -> bit:int -> next_id:int -> cells:int -> t
(** A cleared table for one scan that compacts bit [bit] of tables
    whose cells are node ids below [next_id], producing [cells] cells in
    all.  [zdd] picks the elision rule: [hi = 0] (ZDD) instead of
    [lo = hi] (BDD).  One claim serves one kind of scan, a probe or a
    build.  Pair with {!release}. *)

val count : t -> int array -> unit
(** Scan a table and record its unelided pairs, building nothing: the
    cost-only probe of a full state.  It keeps only the pair set, a
    stamp and a key per slot.  A table holding several roots' tables
    back to back is scanned root by root into the one pair set, as the
    roots of a shared diagram share nodes. *)

val compact : t -> int array -> int array
(** The same scan, building the compacted table (half the length of the
    input): an elided cell keeps its [lo] child, and any other cell gets
    [next_id] plus the index of its pair, whose children {!pairs}
    lists. *)

val count_slice : t -> Arena.layer -> int -> unit
(** {!count} over slice [r] of an arena layer: the sweep's probe. *)

val compact_slice : t -> Arena.layer -> int -> Arena.layer -> int -> unit
(** [compact_slice t src r dst dr] writes the compaction of slice [r]
    of [src] as slice [dr] of [dst]: the sweep's materialise.  It
    records no pairs; the sweep never builds node levels. *)

val width : t -> int
(** Distinct unelided pairs recorded since the claim: the number of
    nodes the scan creates. *)

val pairs : t -> int array
(** The pairs {!compact} recorded, in index order, [lo] then [hi]: a
    fresh array of [2 * width t] ints. *)

val release : t -> unit
(** Hand the table back to its domain.  The scans release it
    themselves before re-raising an exception. *)
