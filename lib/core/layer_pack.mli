(** Bit-packed cost/choice tables for the cardinality layers of the
    subset DP — the one form the DP's table takes, in memory and in
    checkpoints.

    The sweep of {!Subset_dp} produces, for every [k]-subset [K] of the
    free variables, a minimum cost and the variable chosen last — two
    small integers.  An {!Extent} stores one whole layer in one flat
    buffer at 9 bytes per subset (8-byte LE cost, 1-byte choice),
    indexed by the subset's {e combinatorial rank} (colex order — the
    order {!Varset.iter_subsets_of} enumerates, so ranks are dense in
    [0 .. C(m,k)-1]).

    An extent serialises to one of two self-describing formats with the
    same 30-byte header: compressed v3 (delta+varint over the colex
    stream of set entries — cost locality packs small) or raw v4 (the
    dense layer verbatim); {!Extent.encode} picks whichever is smaller.
    The header's rank-range fields always read [lo = 0] and
    [len = C(m,k)], so checkpoint files keep their format; the decoder
    rejects any other range, and rejects damage as a clean [Failure]. *)

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

(** {1 Extents} *)

(** One cardinality layer: the sweep and checkpoints hold each layer as
    one extent. *)
module Extent : sig
  type t

  val create : j_set:Varset.t -> k:int -> total:int -> t
  (** An empty extent of the size-[k] layer over [j_set]
      ([total = C(cardinal j_set, k)], validated).  Raises
      [Invalid_argument] on a bad shape. *)

  val j_set : t -> Varset.t
  val k : t -> int

  val total : t -> int
  (** The layer's subset count. *)

  val present : t -> int
  (** Entries actually set. *)

  val size_bytes : t -> int
  (** Resident charge: the 30-byte header plus [total * 9] dense
      bytes. *)

  val set : t -> rank:int -> cost:int -> choice:int -> unit
  (** Write the entry of a rank; raises [Invalid_argument] outside
      [0, total), on a negative cost or an over-wide choice. *)

  val mem : t -> rank:int -> bool
  val cost : t -> rank:int -> int

  val choice : t -> rank:int -> int
  (** Read by rank; {!cost}/{!choice} raise [Invalid_argument] on an
      unset (pruned) entry. *)

  val iter : t -> (rank:int -> cost:int -> choice:int -> unit) -> unit
  (** Every set entry, in rank order. *)

  val encode : t -> string
  (** The smaller of {!encode_packed} (compressed v3) and {!encode_raw}
      (v4: the dense layer verbatim) — compression is chosen
      automatically exactly when it wins. *)

  val encode_packed : t -> string
  val encode_raw : t -> string

  val decode : string -> t
  (** The inverse of {!encode} for a {e complete} extent (every entry
      set, as in a checkpoint's layer record).  Total on hostile bytes:
      the header is validated before anything is allocated
      ([1 <= k <= m], [total = C(m,k)], [lo = 0], [len = total],
      [present = total], a v3 payload of at least 3 bytes per entry, a
      v4 payload of exactly [9·total] bytes), so the allocation is
      bounded by the payload's own length, and every failure is a
      [Failure]. *)
end
