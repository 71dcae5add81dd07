(** Explicit decision diagrams extracted from a completed compaction.

    The FS dynamic program works on tables; once a state is complete (all
    variables placed) its [NODE] set is exactly the node set of the
    reduced diagram [B(f, π)] for the achieved ordering [π].  This module
    turns that into a first-class value: an array of [(var, lo, hi)]
    nodes plus the root, with evaluation, size, export and a validity
    check (the paper's Theorem 1 guarantees the produced OBDD is always a
    valid diagram for [f], even in the error branch of the quantum
    algorithm — [check] is how the tests enforce that). *)

type node = { var : int; lo : int; hi : int }

type t = private {
  n : int;  (** number of variables *)
  kind : Compact.kind;
  num_terminals : int;
  root : int;
  order : int array;  (** [order.(0)] read last (level 1), as everywhere *)
  nodes : node array;  (** node with id [u] is [nodes.(u - num_terminals)] *)
}

val of_state : Compact.state -> t
(** The diagram of a complete single-rooted state.  Raises
    [Invalid_argument] if the state is not complete or has several
    roots ({!Shared.diagrams} gives one view per root). *)

val of_parts :
  kind:Compact.kind ->
  n:int ->
  num_terminals:int ->
  order:int array ->
  nodes:node array ->
  root:int ->
  t
(** Checked constructor (the validation of {!deserialize} without the
    text): ranges, ordering permutation and strict level descent are
    enforced; raises [Failure] on violations.  Used by
    {!Ovo_core.Shared} to export per-root views of a shared diagram. *)

val node_count : t -> int
(** Non-terminal nodes (the paper's [MINCOST]). *)

val reachable_terminals : t -> int
(** Terminals with an incoming edge (or the root itself, for constant
    functions). *)

val size : t -> int
(** Paper-convention size: [node_count + reachable_terminals] — matches
    the "[2n+2]-sized" / "[2^{n+1}]-sized" figures of Fig. 1. *)

val level_widths : t -> int array
(** [widths.(j)] is the number of nodes labeled with variable
    [order.(j)] (the paper's [Cost_{π[j+1]}(f, π)]). *)

val eval : t -> int -> int
(** [eval d code] follows the diagram on the assignment [code] (bit [j]
    of [code] = variable [j]) and returns the terminal id reached,
    honouring the reduction semantics of [d.kind] (for ZDDs a variable
    skipped on the path evaluates the function to terminal 0 whenever
    that variable is set). *)

val eval_bool : t -> int -> bool
(** [eval d code <> 0] — for two-terminal diagrams. *)

val to_truthtable : t -> Ovo_boolfun.Truthtable.t
(** Tabulate a two-terminal diagram; raises [Invalid_argument] when the
    diagram has more than two terminals. *)

val to_mtable : t -> Ovo_boolfun.Mtable.t
(** Tabulate an arbitrary diagram. *)

val check : t -> Ovo_boolfun.Mtable.t -> bool
(** Full semantic equivalence against a multi-valued truth table. *)

val check_tt : t -> Ovo_boolfun.Truthtable.t -> bool
(** Convenience for Boolean tables. *)

val serialize : t -> string
(** Text serialisation (a dddmp-like exchange format): header with kind,
    arity, terminal count, ordering and root, then one [id var lo hi]
    line per node.  Stable across versions of this library. *)

val deserialize : string -> t
(** Inverse of {!serialize}; raises [Failure] with a line-numbered
    message on malformed input (including dangling node references and
    non-permutation orderings). *)

val to_dot : ?name:string -> t -> string
(** Graphviz rendering (solid 1-edges, dashed 0-edges, box terminals). *)

val pp : Format.formatter -> t -> unit
(** One-line summary: kind, size, ordering. *)
