(** A bounded least-recently-used map — the eviction policy of the
    ordering service's result cache.

    Plain polymorphic keys (hashed with [Hashtbl.hash]), a doubly-linked
    recency list threaded through the nodes, O(1) [find]/[add].  Not
    thread-safe: {!Cache} serialises access under its own lock. *)

type ('k, 'v) t

val create : cap:int -> ('k, 'v) t
(** [cap] must be positive. *)

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Touches the entry: a hit becomes the most recently used. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Without touching recency. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace (either way the entry becomes most recent).  When
    a fresh insert exceeds the capacity, the least recently used entry
    is dropped. *)

val evictions : ('k, 'v) t -> int
(** Entries dropped by capacity so far. *)

