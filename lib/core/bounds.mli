(** Theoretical size bounds on decision diagrams.

    The paper's related-work section leans on the classical counting
    facts (Lee 1959; Heap–Mercer): level widths obey universal caps, the
    caps yield the worst-case OBDD size, and counting shows most
    functions sit near it under {e every} ordering.  This module
    provides those bounds; the tests check every diagram the optimisers
    produce against them, and that the caps are tight at small [n].

    Levels are the paper's: level [j ∈ 1..n] counted from the bottom
    (read last), so level [j] sees [n-j] variables above it and [j-1]
    below.  The matching lower bound, one node per variable the
    function depends on, is {!Bound.counting_lower}. *)

val max_width : n:int -> level:int -> float
(** Universal cap on the number of nodes at a level, for any function
    and ordering:
    [min(2^(n-j), 2^(2^(j-1)) · (2^(2^(j-1)) - 1))] — the number of
    upper restrictions versus the number of [j]-variable subfunctions
    essentially depending on their top variable (a pair of distinct
    [(j-1)]-variable cofactors).  Float because the second term
    explodes. *)

val max_nodes : int -> float
(** Sum of {!max_width} over all levels: the worst-case non-terminal
    count over every [n]-variable function and every ordering. *)

val max_size : int -> float
(** [max_nodes n + 2]. *)

val check_widths : n:int -> int array -> bool
(** [check_widths ~n widths] — whether a measured per-level profile
    (index 0 = bottom level) respects every cap. *)
