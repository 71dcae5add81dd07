(** Admissible bounds for branch-and-bound pruning of the exact DP.

    The subset DP of {!Subset_dp} prices every [K ⊆ J] even when a cheap
    heuristic already proves most of them can never be on an optimal
    ordering.  This module is the shared bound vocabulary that turns the
    layer sweep into an exact branch-and-bound:

    - a {!lower} is an {e admissible} lower bound on the cost any
      completion must still add, given the set of currently-free
      variables, so core, ordering and quantum layers consume one
      implementation (alongside the {!Bounds} counting caps);
    - an {!upper} is an achievable total cost, normally seeded from a
      heuristic orderer (the learned scorer, tightened by sifting)
      through an {e injected provider} — core never depends on
      [lib/ordering], the caller passes the seed in;
    - {!t} is the live pruning context of one solve: the lower bound,
      the atomic incumbent shared across {!Engine.Par} worker domains,
      the pruned-state counter and the per-layer incumbent trajectory.

    Soundness: a state is only discarded when
    [cost + remaining free > incumbent].  Any chain realising an optimal
    ordering satisfies [cost + remaining <= optimum <= incumbent] at
    every prefix, so it survives, and the DP's answer — cost {e and}
    reconstructed ordering — is bit-identical to the unpruned sweep
    (ties keep the smallest tight [h] exactly as before, because a
    pruned candidate can never beat the surviving tight one).  A seeded
    incumbent below the true optimum is unsound; it is caught either by
    a fully-pruned layer ({!Pruned_out}) or by {!check_final}. *)

exception Pruned_out of string
(** A cardinality layer lost every state to pruning, or {!check_final}
    failed.  Under a valid seed this cannot happen for a top-level
    solve; the quantum tower catches it for sub-sweeps of globally
    hopeless branches. *)

type lower = {
  lb_source : string;  (** for stats/trace attribution *)
  remaining : Varset.t -> int;
      (** [remaining free] — admissible lower bound on the cost any
          completion adds while the variables in [free] are still
          unplaced.  Must hold for {e every} reachable state with that
          free set, in the objective of the DP instance it is used
          with. *)
  exact_completion : Varset.t -> int option;
      (** [Some c] when the remaining cost of completing {e all} free
          variables is known exactly — then [cost + c] is an achievable
          total and tightens the incumbent mid-sweep (the any-time
          hook).  [None] when unknown. *)
}

type upper = { ub_source : string; ub_value : int }
(** An achievable total cost (a heuristic ordering's evaluated cost). *)

type layer_stat = {
  ls_layer : int;
  ls_kept : int;
  ls_pruned : int;
  ls_lower : int;  (** best [cost + remaining] over kept states — a
                       valid global lower bound after this layer *)
  ls_incumbent : int;  (** incumbent after this layer's updates *)
}

type t

val counting_lower :
  ?weights:int array -> Compact.kind -> Ovo_boolfun.Mtable.t -> lower
(** The counting bound, per kind: every {e relevant} free variable labels
    at least one node in any completed diagram.  [Bdd]: classic support
    (some input pair differing only in the variable changes the value).
    [Zdd]: zero-suppressed liveness (some point with the variable set
    has a non-zero value).  Admissible for the plain node-count
    objective of {!Subset_dp} sweeps over [mt], including sub-sweeps over
    partially-assigned bases.  With [weights] it bounds the weighted
    objective of {!Fs.run} [~weights] instead: each relevant free
    variable [i] contributes [weights.(i)], and [lb_source] gains a
    ["weighted-"] prefix. *)

val make : ?seed:upper -> lower -> t
(** A fresh pruning context; the incumbent starts at the seed's value
    (or infinity without one, in which case only {!exact_completion}
    updates ever tighten it). *)

val incumbent : t -> int
(** Current incumbent ([max_int] when still unbounded). *)

val remaining : t -> Varset.t -> int
(** The context's {!lower.remaining} on a free set. *)

val exact_completion : t -> Varset.t -> int option
(** The context's {!lower.exact_completion} on a free set. *)

val source : t -> string
(** The lower bound's attribution string. *)

val observe : t -> int -> unit
(** Lower the incumbent to an achievable total (atomic monotone min). *)

val note_pruned : t -> int -> unit
val states_pruned : t -> int

val record_layer : t -> layer_stat -> unit
(** Called by the sweep once per completed layer (calling domain only —
    deterministic under Seq and Par alike, because the incumbent is
    only ever updated at layer boundaries). *)

val layer_stats : t -> layer_stat list
(** The incumbent trajectory, first layer first. *)

val best_lower : t -> int
(** Best proven global lower bound so far (0 before the first layer). *)

val anytime : t -> int * int
(** [(best_lower, incumbent)] — the best-so-far bound pair a cancelled
    (deadline-expired) solve can still report. *)

val check_final : t -> int -> unit
(** Sanity check a completed solve: a final cost above the seeded upper
    bound proves the seed was not achievable — raises {!Pruned_out}. *)

val to_args : t -> (string * Ovo_obs.Json.t) list
(** Trace-span args: bound source, states pruned, incumbent, seed. *)

val to_json_value : t -> Ovo_obs.Json.t
(** The [prune] stats block: {!to_args} plus the per-layer
    trajectory. *)

val pp : Format.formatter -> t -> unit
