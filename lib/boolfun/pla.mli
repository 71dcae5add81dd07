(** A reader/writer for the Berkeley PLA (espresso) exchange format.

    This gives the optimiser the standard EDA front door: two-level cover
    descriptions as produced by espresso and used by the LGSynth/MCNC
    benchmark suites.  Only the core of the format is supported:

    - [.i n] — number of inputs (required);
    - [.o m] — number of outputs (required);
    - [.p k] — number of product terms (optional, checked when present);
    - [.ilb]/[.ob] — names (stored, not interpreted);
    - cube lines [<in-part> <out-part>] with [0], [1], [-] in the input
      part and [0], [1], [-], [~] in the output part;
    - [.e]/[.end] terminator and [#] comments.

    Semantics are the usual F-type cover: output [j] is the OR of the
    cubes whose output part has ['1'] in column [j].  ['-'/'~'] in the
    output part are treated as "not in this cover" (don't-cares are not
    tracked separately — adequate for benchmark input). *)

type t

val inputs : t -> int
val outputs : t -> int
val num_cubes : t -> int

val input_names : t -> string array option

val of_string : string -> t
(** Parses the format above; raises [Failure] with a line-numbered message
    on malformed input. *)

val of_file : string -> t
(** Reads and parses a file. *)

val output_table : t -> int -> Truthtable.t
(** [output_table pla j] tabulates output [j] (costs [O(cubes · 2^n)]). *)

val tables : t -> Truthtable.t array
(** All outputs. *)

val of_truthtables : Truthtable.t array -> t
(** Builds a minterm-based cover representing the given functions (all of
    the same arity).  [tables (of_truthtables ts)] equals [ts]. *)

val to_string : t -> string
(** Renders in the accepted syntax. *)
