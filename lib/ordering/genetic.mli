(** Genetic-algorithm ordering search (Drechsler–Becker–Göckel style).

    The remaining classic from the BDD-minimisation literature: evolve a
    population of orderings with order-crossover (OX) and relocation
    mutation, selecting by diagram size.  GAs explore more globally than
    sifting's single trajectory at a much higher probe budget; the
    quality bench lines it up against the rest.  Each individual is
    priced through one {!Chain} that resumes from the longest prefix
    the individual shares with the last one priced, and reuses the
    widths above the last position where they differ (Lemma 3). *)

val run :
  ?metrics:Ovo_core.Metrics.t ->
  ?kind:Ovo_core.Compact.kind ->
  rng:Random.State.t ->
  Ovo_boolfun.Mtable.t ->
  Chain.result
(** Population 16 (identity always seeded), 24 generations, mutation
    rate 0.3.  Elitism keeps the best individual, so the result never
    loses to the identity ordering. *)

val order_crossover :
  Random.State.t -> int array -> int array -> int array
(** OX: copy a random slice from the first parent, fill the remaining
    positions with the second parent's elements in their relative order.
    Exposed for the property tests (the result must be a permutation). *)
