(** The last line of the benchmark's standard output. *)

type outcome = {
  attempted : int;
  failed : int;  (** wrong answers, errors, refusals, lost replies *)
  wrong : int;  (** the answers that failed a check *)
}

val line :
  outcome:outcome -> expected:Names.metric list -> (string * float) list -> string
(** [{"correct", "attempted", "failed", "metrics"}] with every metric of
    [expected], each [{"value", "unit"}].  Raises [Invalid_argument] when
    a value is missing or not in [expected]. *)

val fail_ratio : outcome -> float

val peak_rss_mb : string -> float
(** VmHWM of a process (["self"] or a pid) in MiB. *)

val log : ('a, out_channel, unit) format -> 'a
(** One line of the human report, on standard error. *)
