(** Seeded inputs.  The program under test sees only the truth tables
    made here from the workload seed. *)

type workload = Exact_random | Exact_par | Exact_hwb_prune | Serve_mixed

val all : workload list
(** Every workload the runner knows, in [BENCHMARK.json]'s order. *)

val to_string : workload -> string
val of_string : string -> workload option

val default_seed : int

val serve_arity : int
val serve_tables : int
(** Distinct tables in the timed [serve-mixed] schedule. *)

val serve_repeats : int
(** Times each of them is sent. *)

type exact = {
  warmup : Ovo_boolfun.Truthtable.t;  (** the same on every seed *)
  pool : Ovo_boolfun.Truthtable.t array;
  pinned : int option array;
      (** known optimum of [pool.(i)], where one is pinned *)
  prune : bool;
  domains : int;  (** 1 = [Engine.Seq] *)
  x_fingerprint : string;
}

val exact : workload -> int -> exact
(** The inputs of an exact workload.  Raises [Invalid_argument] for
    [Serve_mixed]. *)

type request = {
  wire : string;
      (** the table asked for, as the protocol carries it: a variable
          permutation of the [base] table *)
  base : int;  (** index of the distinct table it permutes *)
}

type serve = {
  warmup_requests : request array;
      (** on tables of their own, the same on every seed *)
  schedule : request array;
  pinned_serve : int option array;  (** by [base] *)
  s_fingerprint : string;
}

val serve : int -> serve

val permute_wire : string -> int array -> string
(** {!Ovo_boolfun.Truthtable.permute_vars} on a table's string form. *)
