(** Answer checks.  Every wrong or unverifiable answer is a failed
    operation. *)

type verdict = Ok | Wrong of string

val theorem5_cells : int -> int
(** [n·3^(n-1)], the table cells of an unpruned solve. *)

val exact :
  ?table_cells:int ->
  ?pinned:int ->
  Ovo_boolfun.Truthtable.t ->
  Ovo_core.Fs.result ->
  verdict
(** The diagram computes the table, the order is a permutation whose
    re-evaluated size and cost are [size] and [mincost], [table_cells]
    (given for unpruned solves) is {!theorem5_cells}, and [mincost]
    equals [pinned]. *)

val reply :
  ?pinned:int ->
  agreed:(string -> int -> int option) ->
  Ovo_boolfun.Truthtable.t ->
  Ovo_serve.Solver.solved ->
  verdict
(** A served answer for the table that was asked: the order is a
    permutation, re-evaluates to [mincost], agrees with every earlier
    answer for its digest ([agreed], see {!agreement}) and matches
    [pinned]. *)

val agreement : unit -> string -> int -> int option
(** A fresh digest → first-answer memory. *)

val tally : verdict list -> Report.outcome
(** Every verdict is an attempted operation; every [Wrong] a failed one
    (and a wrong answer). *)
