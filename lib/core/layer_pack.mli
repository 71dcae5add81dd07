(** Bit-packed cost/choice tables for one cardinality layer of the
    subset DP.

    The sweep of {!Subset_dp} produces, for every [k]-subset [K] of the
    free variables, a minimum cost and the variable chosen last — two
    small integers.  A [Layer_pack.t] stores the whole layer in one flat
    [Bytes] buffer at 9 bytes per subset (8-byte LE cost, 1-byte
    choice), indexed by the subset's {e combinatorial rank} (colex
    order — the order {!Varset.iter_subsets_of} enumerates, so ranks are
    dense in [0 .. C(m,k)-1]).  Compared to the boxed hashtable pair it
    replaces this is roughly an order of magnitude smaller, and
    {!encode}/{!decode} turn a layer into a spill payload for
    {!Membudget.sink} with no further serialisation step.

    Three on-disk formats share the version byte: dense v1 (9 B/entry),
    sparse v2 (13 B per {e set} entry — pruned layers spill small) and
    compressed v3 (delta+varint over the colex stream — cost locality
    spills small); {!encode} picks whichever is smallest.  The {!Extent}
    submodule splits a layer into fixed-size rank ranges so the
    out-of-core sweep can spill and reload {e partial} layers: extents
    serialise to v3 or raw v4 payloads with the same self-describing
    header and the same damage rejection. *)

type t
(** One packed layer: the [(cost, choice)] of every size-[k] subset of a
    universe [j_set]. *)

val binomial : int -> int -> int
(** [binomial n k] = [C(n,k)]; [0] outside [0 <= k <= n]. *)

val entry_bytes : int
(** Bytes per packed entry (9). *)

val extent_header_bytes : int
(** Bytes of the self-describing v3/v4 header (30). *)

(** {1 Combinatorial number system} *)

val pascal_table : m:int -> k:int -> int array array
(** [pascal.(p).(i) = C(p,i)] for [p <= m], [i <= k] — the table
    {!rank_in}/{!unrank_in} consume.  Build once per sweep with
    [k = upto] and share it across layers. *)

val rank_in : pascal:int array array -> j_set:Varset.t -> Varset.t -> int
(** Combinatorial (colex) rank of a subset within [j_set] — the order
    {!Varset.iter_subsets_of} enumerates.  Allocates nothing.  No
    validation: the caller guarantees the subset is within [j_set] and
    the table is wide enough. *)

val unrank_in :
  pascal:int array array -> j_set:Varset.t -> k:int -> int -> Varset.t
(** Inverse of {!rank_in} for size-[k] subsets.  Allocates nothing. *)

(** {1 Whole layers} *)

val create : j_set:Varset.t -> k:int -> t
(** An empty layer for the size-[k] subsets of [j_set]; entries are
    unset until {!set}.  Raises [Invalid_argument] unless
    [1 <= k <= cardinal j_set]. *)

val of_entries : j_set:Varset.t -> k:int -> (Varset.t * int * int) array -> t
(** Pack a layer from [(subset, cost, choice)] triples (any order).
    Fewer than [C(m,k)] entries leave the rest unset — the shape a
    pruned branch-and-bound layer produces.  Raises [Invalid_argument]
    on more than [C(m,k)] entries. *)

val set : t -> Varset.t -> cost:int -> choice:int -> unit
(** Write one entry.  Costs must be non-negative (the sign bit marks
    unset entries) and choices fit a byte. *)

val cost : t -> Varset.t -> int
(** The packed cost of a subset; raises [Invalid_argument] if the
    subset is not a size-[k] subset of [j_set] or was never set. *)

val choice : t -> Varset.t -> int
(** The packed last-placed variable of a subset (same errors as
    {!cost}). *)

val k : t -> int
val j_set : t -> Varset.t

val count : t -> int
(** Number of subsets in the layer, [C(cardinal j_set, k)]. *)

val present : t -> int
(** Number of entries actually set; [< count t] after pruning. *)

val mem : t -> Varset.t -> bool
(** Whether a subset's entry is set (i.e. survived pruning). *)

val size_bytes : t -> int
(** Resident footprint charged to {!Membudget} — header plus the dense
    data buffer, regardless of how many entries are set.  The spill
    payload ({!encode}) may be smaller when the layer is sparse or
    compresses well. *)

val rank : t -> Varset.t -> int
(** Combinatorial (colex) rank of a subset within the layer. *)

val unrank : t -> int -> Varset.t
(** Inverse of {!rank}. *)

val iter : t -> (Varset.t -> cost:int -> choice:int -> unit) -> unit
(** Visit every {e set} entry in enumeration (rank) order; unset
    (pruned) subsets are skipped. *)

val entries : t -> (Varset.t * int * int) array
(** All set [(subset, cost, choice)] triples in rank order — the shape
    {!Subset_dp.progress} carries. *)

val encode : t -> string
(** Serialise the layer as a spill/checkpoint payload: the smallest of
    dense v1 (14-byte header + 9 B/subset), sparse v2 (18-byte header +
    13 B per set entry) and compressed v3 (30-byte header + delta+varint
    stream).  Real cost tables are monotone-ish in colex order, so v3
    usually wins by 2× or more. *)

val encode_dense : t -> string
val encode_sparse : t -> string

val encode_packed : t -> string
(** The individual encoders, exposed so tests can pin each format's
    roundtrip and size independently of the automatic choice. *)

val decode : string -> t
(** Inverse of {!encode}; accepts v1, v2 and whole-layer v3 payloads.
    Raises [Failure] on a truncated, corrupt or version-mismatched
    payload — spill damage surfaces as a clean error. *)

(** {1 Payload sources} *)

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type src = S_string of string | S_big of bigstring
(** Where a reload's bytes live: an ordinary string, or a memory-mapped
    file region ([--spill-mmap]) that the OS pages on demand.  Decoding
    from [S_big] never copies the raw v4 slice — the extent keeps the
    mapping as its backing store. *)

val src_length : src -> int
(** Payload length in bytes, whichever backing. *)

(** {1 Extents} *)

(** A fixed-size rank range of one layer — the granularity the
    out-of-core sweep spills and reloads at, so a layer larger than the
    whole memory budget can still leave RAM piecewise and come back one
    touched extent at a time. *)
module Extent : sig
  type t

  val create : j_set:Varset.t -> k:int -> total:int -> lo:int -> len:int -> t
  (** An empty extent covering ranks [lo .. lo+len-1] of the size-[k]
      layer over [j_set] ([total = C(cardinal j_set, k)], validated).
      Raises [Invalid_argument] on an empty or out-of-range extent. *)

  val j_set : t -> Varset.t
  val k : t -> int

  val total : t -> int
  (** The whole layer's subset count (not this extent's). *)

  val lo : t -> int

  val len : t -> int
  (** First rank covered / number of ranks covered. *)

  val present : t -> int
  (** Entries actually set within the extent. *)

  val size_bytes : t -> int
  (** Resident charge: the 30-byte header plus [len * 9] dense bytes. *)

  val set : t -> rank:int -> cost:int -> choice:int -> unit
  (** Write the entry of a {e global} rank; raises [Invalid_argument]
      outside [lo, lo+len), on a negative cost, an over-wide choice, or
      a read-only (mapped) extent. *)

  val mem : t -> rank:int -> bool
  val cost : t -> rank:int -> int

  val choice : t -> rank:int -> int
  (** Read by global rank; {!cost}/{!choice} raise [Invalid_argument]
      on an unset (pruned) entry. *)

  val iter : t -> (rank:int -> cost:int -> choice:int -> unit) -> unit
  (** Every set entry, in rank order. *)

  val encode : t -> string
  (** The smaller of {!encode_packed} (compressed v3) and {!encode_raw}
      (v4: the dense slice verbatim) — compression is chosen
      automatically exactly when it wins. *)

  val encode_packed : t -> string
  val encode_raw : t -> string

  val of_src :
    src -> j_set:Varset.t -> k:int -> total:int -> lo:int -> len:int -> t
  (** Decode the extent covering ranks [lo, lo+len) from a payload.  The
      payload may be an exact extent (v3/v4), a {e larger} extent, or a
      whole-layer record (v1/v2/v3 — the unified checkpoint format):
      any payload whose range contains the request is sliced.  An exact
      v4 match from a mapped source stays mapped (zero copy).  Raises
      [Failure] on damage — wrong layer, truncation, rank disorder,
      negative costs, present-count mismatch — and [Invalid_argument]
      on a malformed request. *)
end
