(** Memory accounting and the admission estimate for the exact subset DP.

    The exact Friedman–Supowit sweep is time-bounded by [O*(3^n)] but
    memory-bounded by [O*(2^n)]: the two arena buffers holding the
    sweep's states ({!Arena}) and the packed cost/choice table
    ({!Layer_pack}, 9 bytes per subset).  A solve is admitted or refused
    {e before} any table is built, from {!estimate}; the sweep itself
    never reads a budget.

    A {!t} tracks the bytes of the packed table layers a run holds
    resident, which is how [--stats json] reports the peak table bytes
    a solve needed. *)

(** {1 Admission} *)

val arena_bytes : n:int -> int
(** The two arena buffers of a full sweep over [n] variables:
    [Arena.bytes ~cells:(2^n) ~m:n ~upto:n]. *)

val table_bytes : n:int -> int
(** The whole packed table of that sweep, one extent per layer:
    [Σ_{k=1..n} (30 + 9·C(n,k))] bytes. *)

val estimate : n:int -> int
(** [arena_bytes ~n + table_bytes ~n], saturating at [max_int]: what an
    exact solve over [n] variables holds at its peak (67 107 B at
    [n = 10]).  [--weights] sweeps the same lattice, and the quantum
    compositions' sub-sweeps are smaller and release their tables. *)

val refusal : n:int -> limit:string -> int -> string option
(** [refusal ~n ~limit cap] is [None] when {!estimate} fits in [cap]
    bytes; otherwise the reason a solve over [n] variables is refused,
    naming the estimate and ending with [limit], the phrase that names
    the cap ("--mem-budget 60000 B"). *)

val pp_bytes : int -> string
(** Exact bytes below 1 MiB (["67107 B"]), one decimal of MiB or GiB
    above. *)

(** {1 Accounting} *)

type t
(** A mutable per-run accounting context (calling-domain only — the
    sweep charges a layer's extent before its parallel map starts, so
    no synchronisation is needed). *)

val create : ?budget_bytes:int -> unit -> t
(** Fresh context, recording the budget the solve was admitted under
    for {!to_json_value}.  Raises [Invalid_argument] if the budget is
    [<= 0]. *)

val unbounded : unit -> t
(** A context without a budget. *)

val peak_resident_bytes : t -> int
(** High-water mark of the packed table bytes held at once: a full
    sweep's whole table, {!table_bytes}. *)

val peak_layer_bytes : t -> int
(** Largest single packed layer seen — the k≈n/2 hump. *)

val grew : t -> int -> unit
(** A packed layer of that many bytes became resident. *)

val shrank : t -> int -> unit
(** A resident layer of that many bytes was released. *)

val note_layer_bytes : t -> int -> unit
(** Record one layer's packed bytes (for {!peak_layer_bytes}). *)

val parse_bytes : string -> (int, string) result
(** Parse a CLI byte size: plain bytes or a [k]/[M]/[G] suffix (binary
    multiples, case-insensitive) — ["64k"] is 65536.  A size whose
    multiple exceeds [max_int] is an error. *)

val to_json_value : t -> Ovo_obs.Json.t
(** The ["mem"] object of [--stats json]: the budget (or [null]) and the
    two peaks. *)

val pp : Format.formatter -> t -> unit
