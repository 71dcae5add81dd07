(** The size spectrum of a function: the distribution of diagram sizes
    over {e all} [n!] orderings.

    The paper's motivation rests on this distribution being wide (the
    Fig. 1 family spans linear to exponential) and on good orderings
    being hard to hit blindly; computing the full spectrum (feasible up
    to [n ≈ 8]) quantifies both — the bench reports how rare the optimal
    orderings are and how much worse the mean and worst cases sit. *)

type t = {
  n : int;
  min_cost : int;
  max_cost : int;
  mean : float;
  optimal_orderings : int;  (** orderings achieving [min_cost] *)
  total_orderings : int;  (** [n!] *)
  histogram : (int * int) list;  (** [(cost, #orderings)], ascending *)
}

val compute : ?kind:Ovo_core.Compact.kind -> Ovo_boolfun.Truthtable.t -> t
(** Exhaustive over all orderings; refuses arities above 8 (raises
    [Invalid_argument]). *)

val optimal_fraction : t -> float
(** [optimal_orderings / total_orderings] — the chance a uniformly
    random ordering is optimal. *)

val pp : Format.formatter -> t -> unit
(** One-line summary. *)
