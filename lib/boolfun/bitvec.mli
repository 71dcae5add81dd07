(** Packed bit vectors.

    A [Bitvec.t] is a fixed-length sequence of bits stored eight per byte.
    It is the backing store for {!Truthtable}, where vectors of length
    [2^n] represent Boolean functions over [n] variables, so the packing
    matters: a 20-variable truth table occupies 128 KiB instead of 8 MiB.

    Indices run from [0] to [length v - 1]; out-of-range accesses raise
    [Invalid_argument]. *)

type t

val create : int -> t
(** [create len] is a vector of [len] bits, all cleared. *)

val length : t -> int
(** Number of bits. *)

val get : t -> int -> bool
(** [get v i] is bit [i]. *)

val set : t -> int -> bool -> unit
(** [set v i b] writes [b] at position [i]. *)

val init : int -> (int -> bool) -> t
(** [init len f] builds a vector whose bit [i] is [f i]. *)

val copy : t -> t
(** Deep copy. *)

val equal : t -> t -> bool
(** Structural equality (same length, same bits). *)

val compare : t -> t -> int
(** Total order consistent with {!equal}. *)

val hash : t -> int
(** Hash compatible with {!equal}. *)

val popcount : t -> int
(** Number of set bits. *)

val is_zero : t -> bool
(** [true] iff no bit is set. *)

val is_ones : t -> bool
(** [true] iff every bit is set. *)

val and_ : t -> t -> t
val or_ : t -> t -> t
val xor_ : t -> t -> t
(** Word-parallel connectives (64 bits per step): these are what the
    [O*(2^n)] truth-table layer should use on hot paths; semantically
    identical to the corresponding {!map2} (property-tested). *)

val flip_index : t -> int -> t
(** [flip_index v k] has bit [i] equal to bit [i lxor 2^k] of [v]: the
    adjacent blocks of [2^k] bits trade places, by whole bytes or
    within one.  Raises [Invalid_argument] unless the length is a
    multiple of [2^(k+1)]. *)

val map2 : (bool -> bool -> bool) -> t -> t -> t
(** [map2 f a b] applies [f] bitwise; raises [Invalid_argument] when the
    lengths differ.  [f] is applied per bit (not per word) so any function
    is allowed. *)

val lnot_ : t -> t
(** Bitwise complement. *)

val fold : ('a -> bool -> 'a) -> 'a -> t -> 'a
(** Left fold over bits in index order. *)

val iteri : (int -> bool -> unit) -> t -> unit
(** Iterate with index. *)

val to_string : t -> string
(** Bits as a ['0']/['1'] string, index 0 first. *)

val of_string : string -> t
(** Inverse of {!to_string}; raises [Invalid_argument] on characters other
    than ['0'] and ['1']. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer ({!to_string} form). *)
