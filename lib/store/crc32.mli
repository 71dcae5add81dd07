(** CRC-32 (IEEE 802.3, polynomial [0xEDB88320]) — the frame checksum of
    the {!Rlog} record format.  Pure OCaml, table-driven; no external
    dependency.  The classic check value holds:
    [string "123456789" = 0xCBF43926l]. *)

val update : ?crc:int32 -> bytes -> pos:int -> len:int -> int32
(** [update ~crc buf ~pos ~len] extends [crc] (default [0l], the empty
    digest) over [len] bytes of [buf] starting at [pos].  Streaming:
    [update ~crc:(update b1) b2] equals the digest of the
    concatenation. *)

val string : string -> int32
(** Digest of a whole string. *)
