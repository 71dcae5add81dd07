(** The benchmark's metric vocabulary — the single list [BENCHMARK.json]
    mirrors (the tests compare the two). *)

type better = Lower | Higher

type metric = { name : string; unit : string; better : better }

val end_to_end : metric list
(** What a user of [ovo] sees; measured with tracing off. *)

val per_layer : metric list
(** One layer each; measured in the separate traced run. *)

val valid_name : string -> bool
(** [[A-Za-z0-9][A-Za-z0-9_.-]*], at most 64 characters. *)
