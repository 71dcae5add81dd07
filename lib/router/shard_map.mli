(** Consistent-hash placement of canonical digests onto shards.

    The router keys every solve on the {e permutation-invariant} table
    digest — the same string the shard's result cache is keyed on — so
    all functions in one NPN-ish equivalence class land on the same
    shard and its cache concentrates instead of diluting N ways.

    Placement is rendezvous (highest-random-weight) hashing: rank
    shards by [hash (key, shard)], a process-independent FNV-1a hash
    (never [Hashtbl.hash], whose value may change across runtimes).
    No precomputed state, perfect balance in expectation,
    O(shards log shards) per lookup.

    It gives the consistent-hash contract the qcheck suite pins down:
    routing is a pure function of [(key, live shard set)], and adding
    or removing one shard only moves the keys that shard owns
    (~[1/N] of them) — every other key keeps its owner. *)

type shard = { name : string; addr : Ovo_serve.Protocol.addr }

type t

val make : shard list -> t
(** Build a map.  Raises [Invalid_argument] on an empty list or a
    duplicate shard name.  Shard order in the input does not matter
    (the map sorts by name). *)

val shards : t -> shard list

val owners :
  ?replicas:int -> t -> live:(string -> bool) -> string -> shard list
(** The first [replicas] (default 1) shards of [key]'s preference
    list, restricted to shards whose name satisfies [live] — primary
    first, then the failover order.  Fewer (possibly zero) when not
    enough shards are live. *)

val owner : t -> live:(string -> bool) -> string -> shard option
(** [owners ~replicas:1] as an option. *)
