(** Span records from the benchmark's tracer, and the per-layer figures
    read off them. *)

type t = {
  name : string;
  cat : string;
  start : float;  (** seconds, in the recording tracer's clock *)
  dur : float;
  args : (string * Ovo_obs.Json.t) list;
}

val of_trace : Ovo_obs.Trace.span -> t

val total : string -> t list -> float
(** Summed duration of the spans with that name. *)

val durations : string -> t list -> float list

type layer_engine = {
  k : int;
  wall : float;
  busy : float array;  (** by worker index *)
}

type engine = {
  layers : layer_engine list;
  layer_s : float;  (** summed wall of the DP layer spans *)
  busy_s : float;  (** summed worker-domain spans *)
  idle_share : float;
      (** [1 - busy / (domains × layer wall)]; [0] without worker spans *)
  imbalance_s : float;
      (** slowest minus fastest worker, summed over layers *)
}

val engine : domains:int -> t list -> engine
(** Attribute the ["domain N"] spans of {!Ovo_core.Engine.map} to their
    enclosing layer spans. *)

val dp_metrics :
  arity:int -> t list -> (string * float) list * (int * float) list
(** The [dp.*] metrics read off the [fs.run] spans (medians over
    solves), and the per-k median layer times. *)
