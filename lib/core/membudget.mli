(** Memory accounting and spill control for the out-of-core subset DP.

    The exact Friedman–Supowit sweep is time-bounded by [O*(3^n)] but
    memory-bounded by the [O*(2^n)] cost/choice tables.  A {!t} tracks
    the bytes of every packed cardinality-layer extent
    ({!Layer_pack.Extent}) the DP holds resident and, when a byte budget
    is set, lets the engine spill cold extents through a {!sink} — an
    injected pair of closures, because [ovo.core] must not depend on the
    [ovo.store] layer that implements the on-disk segments.

    Spilling and reloading happen at {e extent} granularity (fixed-size
    rank ranges, {!extent_bytes} of dense payload each), so the k≈n/2
    cardinality hump — the peak of the DP's footprint — can itself
    exceed the budget: the sweep only ever holds the extents it is
    touching, and backtracking reloads exactly the extents its chains
    cross.

    A context without a budget ({!unbounded}) still accounts, which is
    how [--stats json] can report the peak layer bytes an instance
    {e would} need; a context with a budget must carry a sink. *)

type sink = {
  spill : k:int -> ext:int -> string -> unit;
      (** Persist one encoded extent ([ext] is the extent index within
          layer [k]).  Must be durable enough that {!field-reload}
          returns it verbatim. *)
  reload : k:int -> ext:int -> Layer_pack.src;
      (** Return the payload previously spilled for extent [ext] of
          layer [k] — as a string, or as a memory-mapped region the OS
          pages ([--spill-mmap]).  A sink backed by a unified checkpoint
          may return the {e whole layer's} record instead; the decoder
          slices it ({!Layer_pack.Extent.of_src} containment).  Must
          raise [Failure] on a missing or corrupt segment — the DP
          propagates that as a clean error, never a wrong answer. *)
}
(** Where spilled extents go.  Implemented by [Ovo_store.Spill] over
    CRC-framed (or mmap-able CRC-prefixed) segment files and by
    [Ovo_store.Checkpoint.sink] over the checkpoint log; tests inject
    in-memory sinks. *)

type t
(** A mutable per-run accounting context (calling-domain only — a layer
    is packed once every participant of its parallel map has finished,
    so no synchronisation is needed). *)

val default_extent_bytes : int
(** 1 MiB. *)

val create : ?budget_bytes:int -> ?extent_bytes:int -> ?sink:sink -> unit -> t
(** Fresh context.  [extent_bytes] (default {!default_extent_bytes})
    fixes the dense payload size layers are split at.  Raises
    [Invalid_argument] if the budget or extent size is [<= 0] or if a
    budget is given without a sink to spill through. *)

val unbounded : unit -> t
(** Accounting-only context: never spills, still tracks peaks. *)

val budget : t -> int option
(** The configured cap; [None] when unbounded. *)

val extent_bytes : t -> int
(** Dense bytes per extent — layers are split into
    [ceil (count * 9 / extent_bytes)] extents. *)

val sink : t -> sink option
(** The configured spill sink, if any. *)

val over_budget : t -> bool
(** Whether resident bytes currently exceed the budget ([false] when
    unbounded). *)

val resident_bytes : t -> int
(** Bytes of packed extents currently held in memory. *)

val peak_resident_bytes : t -> int
(** High-water mark of {!resident_bytes} over the run.  Under a budget
    this stays within [budget + one extent's charge]: an extent may be
    charged before enforcement evicts, but never more than one. *)

val peak_layer_bytes : t -> int
(** Largest single packed layer seen (summed over its extents) — the
    hump an in-core run must hold resident.  Under extent spilling the
    budget may be far below this. *)

val layers_spilled : t -> int
(** Layers that had at least one extent spilled. *)

val extents_spilled : t -> int
val bytes_spilled : t -> int

val raw_bytes_spilled : t -> int
(** Spill traffic: extents pushed through the sink, encoded bytes
    actually written, and the dense bytes those extents represented —
    [raw / written] is the compression ratio. *)

val compression_ratio : t -> float
(** [raw_bytes_spilled / bytes_spilled]; [1.0] before any spill. *)

val reloads : t -> int

val bytes_reloaded : t -> int
(** Reload traffic: extent fetches pulled back during backtracking and
    their payload bytes. *)

val grew : t -> int -> unit
(** A packed extent of that many bytes became resident. *)

val shrank : t -> int -> unit
(** A resident extent of that many bytes was dropped (spilled or
    freed). *)

val note_layer_bytes : t -> int -> unit
(** Record one completed layer's total packed bytes (for
    {!peak_layer_bytes}). *)

val note_layer_spill : t -> unit
(** Count one layer whose first extent just spilled. *)

val note_spill : t -> raw:int -> stored:int -> unit
(** Count one spilled extent: [raw] dense bytes represented, [stored]
    encoded bytes written. *)

val note_reload : t -> int -> unit
(** Count one reloaded extent of that many payload bytes. *)

val parse_bytes : string -> (int, string) result
(** Parse a CLI byte size: plain bytes or a [k]/[M]/[G] suffix (binary
    multiples, case-insensitive) — ["64k"] is 65536. *)

val to_args : t -> (string * Ovo_obs.Json.t) list
(** The accounting as JSON fields, for span attributes and the ["mem"]
    object of [--stats json]. *)

val to_json_value : t -> Ovo_obs.Json.t
val to_json : t -> string
val pp : Format.formatter -> t -> unit
