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

val byte : t -> int -> int
(** [byte v i] is packed byte [i], bits [8i .. 8i + 7] with bit [8i]
    least significant.  A vector has [(length v + 7) / 8] bytes, and the
    bits past [length v] read as zero. *)

(** {2 Vectors indexed by [n]-bit codes}

    A vector of length [2^n] is a table over the codes [0 .. 2^n - 1],
    as in {!Truthtable}.  These kernels read it in 32-bit words or whole
    bytes, not bit by bit. *)

val index_counts : t -> int -> int array * int array array
(** [index_counts v n], for [length v = 2^n], is [(c1, c11)]: [c1.(j)]
    counts the set bits whose index has bit [j] set, and [c11.(j).(k)]
    ([j <> k]) those whose index has bits [j] and [k] set; the diagonal
    is zero.  Popcounts of 32-bit words under constant masks for index
    bits 0–4, the word's number for the rest: O(n^2 2^n / 32).  Raises
    [Invalid_argument] when the length is not [2^n]. *)

val permute_index : t -> int array -> t
(** [permute_index v perm], for [length v = 2^n] and
    [n = Array.length perm], moves index bit [j] to bit [perm.(j)]: bit
    [i] of the result is bit [s] of [v], where [s] sets bit [perm.(j)]
    for each bit [j] set in [i].  Raises [Invalid_argument] on a length
    other than [2^n] or an entry outside [0 .. n-1]; whether [perm] is a
    permutation is the caller's to check. *)

val to_string : t -> string
(** Bits as a ['0']/['1'] string, index 0 first. *)

val of_string : string -> t
(** Inverse of {!to_string}; raises [Invalid_argument "Bitvec.of_string"]
    on characters other than ['0'] and ['1']. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer ({!to_string} form). *)
