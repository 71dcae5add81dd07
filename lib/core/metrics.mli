(** Per-run operation accounting — the replacement for the global
    counters of {!Cost}.

    A {!t} is a mutable context owned by one run of a dynamic program (or
    by one worker domain of a parallel run; see {!Engine}).  The core
    algorithms take the context explicitly, so concurrent runs — or the
    per-layer worker domains of {!Engine.Par} — never contaminate each
    other: each domain counts into its own scratch context and the engine
    {!merge_into}s the scratches after the join.

    Counter discipline (chosen so that [table_cells] keeps the exact
    meaning the complexity theorems price — one unit per table cell
    processed while {e evaluating a candidate}):

    - {!Compact.compact} (a direct, stand-alone compaction): charges
      [table_cells], [compactions] and [node_creations].
    - {!Compact.width_if_compacted} (the allocation-free cost probe):
      charges [table_cells] and [cost_probes] — a probe does the same
      cell scan a compaction would, it just materialises nothing.
    - {!Compact.materialise} (building the already-costed winner inside
      the DP): charges [states_materialised] and [node_creations] but
      {e not} [table_cells] — its cells were already charged by the
      probe that elected it.

    With this discipline the measured [table_cells] of a full {!Fs.run}
    is exactly the paper's [n·3^(n-1)] (Theorem 5), as before the
    two-pass refactor, while [cost_probes] and [states_materialised]
    show that only the winner of each subset is built. *)

type t = private {
  mutable table_cells : int;
      (** cells scanned during candidate evaluation (probe or compact) *)
  mutable cost_probes : int;  (** allocation-free cost probes *)
  mutable compactions : int;  (** stand-alone {!Compact.compact} steps *)
  mutable node_creations : int;  (** fresh diagram nodes allocated *)
  mutable states_materialised : int;  (** winner states built by the DP *)
}

type snapshot = {
  s_table_cells : int;
  s_cost_probes : int;
  s_compactions : int;
  s_node_creations : int;
  s_states_materialised : int;
  s_node_table_copies : int;
      (** Always 0: compactions share their parent's node levels instead
          of copying a node table (see {!Compact}).  Kept only because the
          repository benchmark reads it; it goes with the next change to
          the benchmark. *)
}
(** An immutable copy of the counters, for before/after arithmetic. *)

val create : unit -> t
(** A fresh context with all counters at zero. *)

val reset : t -> unit
(** Zero every counter in place. *)

val snapshot : t -> snapshot
(** An immutable copy of the current counter values. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] is the per-field difference. *)

val merge_into : into:t -> t -> unit
(** Add every counter of the second context into [into].  Used by
    {!Engine} to fold worker-domain scratches into the run's context. *)

val add_cells : t -> int -> unit
val add_probe : t -> unit
val add_compaction : t -> unit
val add_nodes : t -> int -> unit
val add_state : t -> unit
(** Incrementors used by the core algorithms. *)

val ambient : t
(** The process-global context behind the deprecated {!Cost} API; it is
    also the default context of the counting entry points, so legacy
    [Cost.snapshot]-diff measurements keep working.  Written only by the
    calling domain, never from {!Engine.Par} workers. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable one-liner, for [--stats text]. *)

val to_args : snapshot -> (string * Ovo_obs.Json.t) list
(** The counters as JSON fields — span attributes for the tracer, and
    the body of {!to_json_value}. *)

val to_json_value : snapshot -> Ovo_obs.Json.t
(** {!to_args} wrapped as a JSON object value. *)

val to_json : snapshot -> string
(** One-line JSON object, for [--stats json] and the bench harness.
    Emitted through the shared {!Ovo_obs.Json} emitter; inverse
    {!of_json}. *)

val of_json_value : Ovo_obs.Json.t -> snapshot option
(** Parse a {!to_json_value} object; [None] on mismatch. *)

val of_json : string -> snapshot option
(** Parse {!to_json} output back; [None] on malformed or incomplete
    input. *)
