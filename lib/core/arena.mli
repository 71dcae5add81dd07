(** The two layer buffers of a {!Subset_dp} sweep.

    Theorem 5's DP reads only the previous cardinality layer while it
    writes the next one (Remark 1), so a sweep keeps its states' tables
    in two off-heap buffers and ping-pongs between them: layer [k] lives
    in buffer [k mod 2].  A layer holds one {e slice} per subset, at the
    subset's colex rank: the subset's table of node ids, [cells] cells
    long, laid out as {!Compact.state}'s [table] is (several roots'
    tables back to back for {!Shared}).

    A cell is 2 bytes when every id the layer can hold is below
    {!narrow_ids}, and 4 bytes otherwise; the sweep decides per layer,
    from a bound known before the layer is written.  Writes go to
    disjoint slices, so {!Engine.Par} participants fill one layer
    concurrently. *)

type buf =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type layer = private {
  buf : buf;
  wide : bool;  (** 4-byte cells; 2-byte when [false] *)
  cells : int;  (** cells per slice *)
}
(** A view of one layer: slice [r] is cells
    [r * cells … (r+1) * cells - 1]. *)

val narrow_ids : int
(** [65 536]: ids below it fit a 2-byte cell. *)

external get16 : buf -> int -> int = "%caml_bigstring_get16"
external set16 : buf -> int -> int -> unit = "%caml_bigstring_set16"
external get32 : buf -> int -> int32 = "%caml_bigstring_get32"
external set32 : buf -> int -> int32 -> unit = "%caml_bigstring_set32"
(** The cell accessors at a byte offset, for scans that inline them.  A
    4-byte cell holds an [int32]; ids stay below 2^31, so it reads
    back non-negative. *)

val blit : int array -> layer -> pos:int -> unit
(** [blit ids l ~pos] writes [ids] as cells [pos, pos + 1, …] of the
    layer (slices counted in). *)

type t
(** The two buffers of one sweep.  Each domain keeps a pair and reuses
    it from sweep to sweep, as {!Pair_table} does: a sweep {!claim}s
    it with an atomic exchange, and one that finds it taken (a sweep
    nested in another, or a preempted systhread's) gets a private
    pair.  A domain's pair only grows, so a process keeps at most its
    largest sweep's buffers per domain. *)

val bytes : cells:int -> m:int -> upto:int -> int
(** The closed form the buffers are sized with: for a sweep over [m]
    variables from a base slice of [cells] cells that writes layers
    [0 … upto-1] (the final layer is never written: its states are
    rebuilt by replay), each buffer holds the largest of its parity's
    layers at 2 bytes per cell, layer [k] being
    [C(m,k) · cells / 2^k] cells.  Saturates at [max_int]. *)

val claim : cells:int -> m:int -> upto:int -> t
(** The domain's two buffers, grown to the sizes {!bytes} sums if they
    are smaller.  A layer that needs 4-byte cells replaces its buffer
    by a larger one when it does not fit.  Pair with {!release}. *)

val release : t -> unit
(** Hand the buffers back to their domain. *)

val layer : t -> k:int -> wide:bool -> cells:int -> slices:int -> layer
(** The buffer of layer [k] viewed as [slices] slices of [cells] cells;
    its previous contents (layer [k - 2]) are dead. *)
