(** Binary payload encoding for {!Rlog} records — little-endian, fixed
    widths, no external dependency.  Writers append to a [Buffer];
    readers walk a string and raise {!Corrupt} on any malformed input
    (short data, out-of-range values), which the store layers catch and
    turn into a discarded record — never an abort. *)

exception Corrupt of string
(** A payload that cannot be decoded.  The message names the field. *)

(** {1 Writers} *)

val u8 : Buffer.t -> int -> unit
(** One byte; requires [0 <= v < 256]. *)

val u32 : Buffer.t -> int -> unit
(** Four bytes LE; requires [0 <= v < 2^32]. *)

val u64 : Buffer.t -> int -> unit
(** Eight bytes LE, two's complement — any OCaml [int] round-trips. *)

val str : Buffer.t -> string -> unit
(** [u32] length prefix, then the bytes. *)

val int_array : Buffer.t -> int array -> unit
(** [u32] count, then each element as [u64]. *)

(** {1 Readers} *)

type reader

val reader : string -> reader
(** A cursor at position 0. *)

val r_u8 : reader -> int
val r_u32 : reader -> int

val r_u64 : reader -> int
(** Read back the fixed-width integers, in writing order.  All raise
    {!Corrupt} past end of input, and [r_u64] on a value outside OCaml's
    [int] range. *)

val r_str : reader -> string

val r_int_array : reader -> int array
(** Read back a length-prefixed string / int array; raise {!Corrupt}
    when the prefix counts past end of input. *)

val expect_end : reader -> unit
(** Raises {!Corrupt} unless the whole payload was consumed — trailing
    bytes mean a record written by different code. *)
