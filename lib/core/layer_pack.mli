(** Bit-packed cost/choice tables for the cardinality layers of the
    subset DP — the one form the DP's table takes, in the sweep and in
    checkpoints.

    The sweep of {!Subset_dp} produces, for every [k]-subset [K] of the
    free variables, a minimum cost and the variable chosen last — two
    small integers.  An {!Extent} stores one whole layer in one flat
    buffer at 9 bytes per subset (8-byte LE cost, 1-byte choice),
    indexed by the subset's {e combinatorial rank} (colex order — the
    order {!Varset.iter_subsets_of} enumerates, so ranks are dense in
    [0 .. C(m,k)-1]).  The sweep's workers write each subset's winner
    straight into its layer's extent, at its own rank.

    An extent serialises to one self-describing format, v3: a 30-byte
    header, then a delta+varint stream over the colex sequence of set
    entries (cost locality packs small).  The header's rank-range
    fields always read [lo = 0] and [len = C(m,k)], so checkpoint files
    keep their format; the decoder rejects any other range or version
    (the raw v4 of older builds included), and rejects damage as a
    clean [Failure]. *)

val binomial : int -> int -> int
(** [binomial n k] = [C(n,k)]; [0] outside [0 <= k <= n]. *)

val entry_bytes : int
(** Bytes per packed entry (9). *)

val extent_header_bytes : int
(** Bytes of the self-describing v3 header (30). *)

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

(** {1 Extents} *)

(** One cardinality layer: the sweep and checkpoints hold each layer as
    one extent. *)
module Extent : sig
  type t

  val create : j_set:Varset.t -> k:int -> total:int -> t
  (** An empty extent of the size-[k] layer over [j_set]
      ([0 <= k <= cardinal j_set], [total = C(cardinal j_set, k)]).
      Raises [Invalid_argument] on a bad shape. *)

  val j_set : t -> Varset.t
  val k : t -> int

  val total : t -> int
  (** The layer's subset count. *)

  val present : t -> int
  (** Entries actually set, counted by a scan. *)

  val size_bytes : t -> int
  (** Resident charge: the 30-byte header plus [total * 9] dense
      bytes. *)

  val set : t -> rank:int -> cost:int -> choice:int -> unit
  (** Write the entry of a rank; raises [Invalid_argument] outside
      [0, total), on a negative cost or an over-wide choice.  Writes to
      distinct ranks touch distinct bytes, so the participants of one
      {!Engine.map} may fill one extent concurrently. *)

  val mem : t -> rank:int -> bool
  val cost : t -> rank:int -> int

  val choice : t -> rank:int -> int
  (** Read by rank; {!cost}/{!choice} raise [Invalid_argument] on an
      unset (pruned) entry. *)

  val iter : t -> (rank:int -> cost:int -> choice:int -> unit) -> unit
  (** Every set entry, in rank order. *)

  val encode : t -> string
  (** The v3 record: the header, then for every set entry in rank
      order its rank gap, zig-zag cost delta (both LEB128 varints) and
      choice byte. *)

  val decode : string -> t
  (** The inverse of {!encode} for a {e complete} extent (every entry
      set, as in a checkpoint's layer record).  Total on hostile bytes:
      the header is validated before anything is allocated (version 3,
      [1 <= k <= m], [total = C(m,k)], [lo = 0], [len = total],
      [present = total], a payload of at least 3 bytes per entry), so
      the allocation is bounded by the payload's own length, and every
      failure is a [Failure]. *)
end
