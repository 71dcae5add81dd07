(** Bit-packed cost/choice tables for the cardinality layers of the
    subset DP — the one form the DP's table takes, in memory and in
    checkpoints.

    The sweep of {!Subset_dp} produces, for every [k]-subset [K] of the
    free variables, a minimum cost and the variable chosen last — two
    small integers.  An {!Extent} stores a range of one layer's subsets
    in one flat buffer at 9 bytes per subset (8-byte LE cost, 1-byte
    choice), indexed by the subset's {e combinatorial rank} (colex
    order — the order {!Varset.iter_subsets_of} enumerates, so ranks are
    dense in [0 .. C(m,k)-1]).  A whole layer is the extent with
    [lo = 0] and [len = C(m,k)].

    An extent serialises to one of two self-describing formats with the
    same 30-byte header: compressed v3 (delta+varint over the colex
    stream of set entries — cost locality packs small) or raw v4 (the
    dense slice verbatim); {!Extent.encode} picks whichever is smaller.
    The decoder rejects damage as a clean [Failure]. *)

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

(** A rank range of one layer.  The sweep and checkpoints hold each
    layer as one extent spanning it ([lo = 0], [len = C(m,k)]). *)
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
      outside [lo, lo+len), on a negative cost or an over-wide
      choice. *)

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

  val decode : string -> t
  (** Decode the range the payload's own header describes — the inverse
      of {!encode} for a {e complete} extent (every entry set, as in a
      checkpoint's whole-layer record).  Total on hostile bytes: the
      header is validated before anything is allocated ([1 <= k <= m],
      [total = C(m,k)], the range inside the layer, [present = len], a
      v3 payload of at least 3 bytes per entry, a v4 payload of exactly
      [9·len] bytes), so the allocation is bounded by the payload's own
      length, and every failure is a [Failure]. *)
end
