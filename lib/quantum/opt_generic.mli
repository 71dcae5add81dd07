(** The quantum divide-and-conquer machinery, abstracted over the state
    being optimised.

    The paper's algorithms never look inside [FS(⟨…⟩)] beyond "compact
    one more variable", "read the cost" and "which variables are free" —
    the same interface the classical {!Ovo_core.Subset_dp} functor uses.
    Abstracting over it lets the identical quantum code minimise plain
    diagrams ({!Opt_obdd}) and multi-rooted shared diagrams
    ({!Opt_shared}), supporting the paper's closing remark that the
    speedups carry over to other diagram variants. *)

module type STATE = Ovo_core.Subset_dp.COMPACTABLE
(** The full state the quantum code composes, and the sweep kernel its
    classical FS* sub-sweeps run on. *)

module Make (S : STATE) : sig
  type subroutine
  (** A procedure extending a state over a free block [J], with modeled
      cost; the composable unit of Lemmas 11/12. *)

  val name : subroutine -> string

  val apply :
    subroutine -> Qctx.t -> S.state -> Ovo_core.Varset.t -> S.state * float

  val fs_star : subroutine
  (** The classical composition (Lemma 8 over [S]); modeled cost =
      measured table cells. *)

  val simple_split : ?alpha:float -> unit -> subroutine
  (** Section 3.1's single-split algorithm (no preprocessing). *)

  val opt_obdd :
    ?label:string -> k:int -> alpha:float array -> subroutine -> subroutine
  (** [OptOBDD*_gamma(k, α)] over [S]; see {!Opt_obdd.opt_obdd} for the
      parameter contract. *)

  val theorem10 : ?k:int -> unit -> subroutine
  (** Published Table 1 parameters (default [k = 6]). *)

  val tower : depth:int -> subroutine
  (** The Theorem 13 composition with the published Table 2 rows;
      [depth] in [1..10]. *)

  val run :
    Qctx.t -> subroutine -> base:S.state -> Ovo_core.Varset.t -> S.state * float
  (** Apply a subroutine over a block (alias of {!apply} with labels). *)
end
