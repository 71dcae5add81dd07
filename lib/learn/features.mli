(** Structural features for scored variable ordering.

    The learned-ordering literature (Grumberg–Livne–Markovitch; Kimura–
    Fujita–Wille) scores variables by cheap structural signals — literal
    frequency, adjacency in conjunctions, topological proximity — and
    orders by score instead of probing diagram sizes.  This module
    extracts the semantic ones from a truth table; every command,
    corpus and model builds features that way.  The syntactic signals
    would be zero for a table, so they are not extracted; a corpus row
    written with [adjacency] and [proximity] matrices still loads, its
    two extra keys ignored.

    Every feature is {e permutation-equivariant by construction}:
    extracting from a relabelled function yields the relabelled feature
    vectors ({!permute} states the law, and [test/test_learn.ml]
    qchecks it with exact float equality — each entry is a count over
    all [2^n] assignments, so relabelling permutes the very same sums). *)

type t = {
  n : int;  (** arity *)
  influence : float array;
      (** flip probability [Pr(f(x) <> f(x xor e_j))] — the
          Boolean-Fourier weight of variable [j] *)
  polarity : float array;
      (** signed cofactor imbalance
          [(|f_{j=1}| - |f_{j=0}|) / 2^(n-1)] — the first-order Walsh
          coefficient, up to sign convention *)
  spectral : float array;
      (** second-order spectral moment: mean over [k <> j] of the
          absolute pairwise Walsh coefficient [|W_{jk}|] *)
  occurrence : float array;
      (** the support indicator (1 when the function depends on the
          variable), the table's proxy for literal frequency *)
  cosens : float array array;
      (** pairwise co-sensitivity
          [Pr(flipping j flips f and flipping k flips f)] — the
          semantic analogue of a conjunction-adjacency matrix; symmetric,
          zero diagonal *)
}

val of_truthtable : Ovo_boolfun.Truthtable.t -> t
(** Semantic features only ([occurrence] = support indicator).
    Word-parallel: one derivative
    [f xor f∘flip_j] per variable, then popcounts of [&&&] and [xor]
    combinations, [O(n^2 2^n)] bit operations done a word at a time.
    The counts, and hence the floats, are exactly those of a per-bit
    scan. *)

val permute : t -> int array -> t
(** The equivariance law: if [g = Truthtable.permute_vars f perm] then
    [of_truthtable g = permute (of_truthtable f) perm] — entry [j] of
    the result is entry [perm.(j)] of the input (pairwise entries
    [(j, k)] map from [(perm.(j), perm.(k))]). *)

val equal : t -> t -> bool
(** Exact (float-wise) equality. *)

val to_json : t -> Ovo_obs.Json.t

val of_json : Ovo_obs.Json.t -> (t, string) result
(** Inverse of {!to_json} (accepts integer-valued floats printed as
    JSON integers; unknown keys are ignored). *)

val pp : Format.formatter -> t -> unit
