(** Ground-truth ordering corpus: the exact DP as a label factory.

    The learned-ordering papers train against heuristic proxies because
    exact optima are unobtainable at their scale; up to n≈16 this
    repository computes them outright.  A dataset row pairs a
    function's {!Features} with its provably optimal ordering and cost
    (from {!Ovo_core.Fs.run}) plus the costs of the cheap baselines —
    scored, influence, sifting, a seeded random permutation, and the
    worst ordering observed across the sampled set — everything a
    scorer fit or a gap report needs.

    Generation is {e deterministic by spec}: the same {!spec} always
    yields the byte-identical NDJSON corpus (qcheck-pinned), because
    every random choice derives from [spec.seed] and the row index.
    With a [store] directory it is also {e resumable}: each completed
    row is appended to a CRC-framed {!Ovo_store.Rlog} keyed by the spec,
    so an interrupted run redoes only the in-flight row, and the final
    corpus is byte-identical to an uninterrupted one. *)

type spec = {
  families : string list option;
      (** restrict to these catalogue names ([None] = all) *)
  n_max : int;  (** catalogue instantiation cap (and random-arity cap) *)
  random : int;  (** extra seeded random functions appended *)
  seed : int;
  kind : Ovo_core.Compact.kind;
}

val default_spec : spec
(** All families at [n_max = 12], no randoms, seed 1987, BDD. *)

type costs = {
  c_opt : int;  (** the exact optimum — the label *)
  c_worst : int;
      (** costliest ordering among the sampled set (identity, reverse,
          16 seeded random permutations, and every heuristic's order) —
          a lower bound on the true worst *)
  c_scored : int;
  c_influence : int;
  c_sifting : int;
  c_random : int;  (** the first seeded random permutation's cost *)
}

type row = {
  name : string;
  n : int;
  digest : string;  (** permutation-invariant cache digest *)
  table : string;  (** the truth table, so evaluators can re-derive *)
  opt_order : int array;  (** repository convention, read-last first *)
  features : Features.t;
  costs : costs;
}

val tasks : spec -> (string * Ovo_boolfun.Truthtable.t) list
(** The work list the spec denotes, in deterministic order: catalogue
    entries (filtered by [families]) then [random-<seed>-<i>] randoms.
    Raises [Failure] on a family name outside the catalogue. *)

val generate :
  ?trace:Ovo_obs.Trace.t ->
  ?weights:Scorer.Weights.t ->
  ?store:string ->
  ?on_row:(row -> unit) ->
  spec ->
  row list
(** All rows of the spec, in {!tasks} order.  [store] names a directory
    whose [dataset.rlog] caches completed rows: rows recovered from a
    matching spec are reused, a spec mismatch starts the log over.
    [on_row] fires once per row (fresh or recovered), in order.  A
    fresh row is labelled under a [learn.dataset.row] span: features,
    heuristic costs, then the exact DP (scorer-seeded branch-and-bound,
    still exact). *)

val row_to_json : row -> Ovo_obs.Json.t

val row_of_json : Ovo_obs.Json.t -> (row, string) result

val to_ndjson : row list -> string
(** One {!row_to_json} object per line — the corpus format `ovo
    dataset` writes and `ovo eval-orderers` reads. *)

val of_ndjson : string -> (row list, string) result
