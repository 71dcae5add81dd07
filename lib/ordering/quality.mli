(** Heuristic-quality reports — the paper's stated use for exact methods:
    "to judge the optimization quality of heuristics" (Sec. 1.1).

    For a function, run the exact optimiser and each heuristic, and
    report absolute sizes plus the ratio heuristic/optimum. *)

type entry = {
  method_name : string;
  mincost : int;
  ratio : float;  (** [mincost / exact_mincost]; 1.0 means optimal.  For
                      the degenerate constant function ([exact = 0]) the
                      ratio is 1.0 when the heuristic also reaches 0. *)
}

type report = {
  fn_name : string;
  arity : int;
  exact : int;  (** the FS optimum (non-terminal nodes) *)
  worst : int;  (** worst ordering found among the probes made (an
                    indication of the spread heuristics navigate) *)
  entries : entry list;
}

val evaluate :
  ?kind:Ovo_core.Compact.kind ->
  ?rng:Random.State.t ->
  name:string ->
  Ovo_boolfun.Truthtable.t ->
  report
(** Runs exact FS, sifting, window permutation, random search,
    simulated annealing and genetic search (the last three sharing the
    given or a fixed-seed RNG) on the function, converted to an
    {!Ovo_boolfun.Mtable.t} once for all five heuristics. *)

val pp_report : Format.formatter -> report -> unit
(** Aligned multi-line rendering. *)
