(** Subsets of the variable index set [{0, …, n-1}] as bitmasks.

    The dynamic programs in this repository are indexed by variable
    subsets (the paper's [I], [J], [K] ⊆ [n]); this module fixes the
    encoding — bit [i] set iff variable [i] is in the set — and provides
    the enumeration loops they need, in particular constant-amortised-time
    enumeration of all [k]-element subsets (Gosper's hack). *)

type t = int
(** A subset as a bitmask.  Usable with up to [Sys.int_size - 1]
    variables, far beyond what any [2^n] table allows anyway. *)

val empty : t
(** The empty set. *)

val full : int -> t
(** [full n] is [{0, …, n-1}]. *)

val mem : int -> t -> bool
(** Membership. *)

val add : int -> t -> t
(** [add i s] is [s ∪ {i}]. *)

val remove : int -> t -> t
(** [remove i s] is [s \ {i}]. *)

val singleton : int -> t
(** [singleton i] is [{i}]. *)

val union : t -> t -> t
(** Set union. *)

val inter : t -> t -> t
(** Set intersection. *)

val diff : t -> t -> t
(** [diff a b] is [a \ b]. *)

val subset : t -> t -> bool
(** [subset a b] iff [a ⊆ b]. *)

val disjoint : t -> t -> bool
(** [disjoint a b] iff [a ∩ b = ∅]. *)

val cardinal : t -> int
(** Number of elements (population count). *)

val is_empty : t -> bool
(** [is_empty s] iff [s = ∅]. *)

val elements : t -> int list
(** Ascending. *)

val of_list : int list -> t
(** Set of the listed indices (duplicates collapse). *)

val min_elt : t -> int
(** Smallest element; raises [Not_found] on the empty set. *)

val iter : (int -> unit) -> t -> unit
(** Ascending order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending order. *)

val rank_in : int -> t -> int
(** [rank_in i s] is the number of elements of [s] strictly below [i]
    ([i] need not be a member). *)

val iter_subsets_of_size : n:int -> k:int -> (t -> unit) -> unit
(** Enumerates every [k]-element subset of [{0,…,n-1}] exactly once, in
    increasing bitmask order (Gosper's hack). *)

val iter_subsets_of : t -> size:int -> (t -> unit) -> unit
(** Enumerates the [size]-element subsets of an arbitrary set. *)

val pp : Format.formatter -> t -> unit
(** Renders as [{0,3,5}]. *)
