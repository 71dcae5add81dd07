(** Evaluating a {e given} variable ordering.

    A single compaction chain computes the reduced diagram of [f] under a
    fixed ordering in [O(2^{n+1})] table cells — the per-candidate cost
    that makes brute force [O*(n! · 2^n)].  The local searches pay less
    per probe: [Ovo_ordering.Chain] recompacts only the levels a
    candidate changes.  Orderings follow the repository convention: [order.(0)] is
    the variable read last (the paper's [π[1]]).  Every function charges
    its chain to [metrics] (default a fresh context). *)

val state :
  ?metrics:Metrics.t ->
  ?kind:Compact.kind -> Ovo_boolfun.Truthtable.t -> int array -> Compact.state
(** Complete compaction state under the given ordering.  Raises
    [Invalid_argument] if [order] is not a permutation of the variables. *)

val state_mtable :
  ?metrics:Metrics.t ->
  ?kind:Compact.kind -> Ovo_boolfun.Mtable.t -> int array -> Compact.state
(** Multi-terminal variant. *)

val mincost :
  ?metrics:Metrics.t ->
  ?kind:Compact.kind -> Ovo_boolfun.Truthtable.t -> int array -> int
(** Non-terminal node count under the ordering. *)

val size :
  ?metrics:Metrics.t ->
  ?kind:Compact.kind -> Ovo_boolfun.Truthtable.t -> int array -> int
(** Paper-convention size (nodes + reachable terminals). *)

val widths :
  ?metrics:Metrics.t ->
  ?kind:Compact.kind -> Ovo_boolfun.Truthtable.t -> int array -> int array
(** [widths.(j)] = number of nodes labeled [order.(j)] (level [j+1]). *)

val diagram :
  ?metrics:Metrics.t ->
  ?kind:Compact.kind -> Ovo_boolfun.Truthtable.t -> int array -> Diagram.t
(** The reduced diagram itself. *)

val read_first : int array -> int array
(** Convert between the two ordering directions (the function is its own
    inverse: it just reverses the array). *)
