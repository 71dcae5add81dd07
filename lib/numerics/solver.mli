(** One-dimensional root finding for the parameter-equation systems. *)

val bisect :
  ?tol:float -> f:(float -> float) -> lo:float -> hi:float -> unit -> float
(** Bisection on a bracketed sign change ([f lo] and [f hi] of opposite
    signs, else [Invalid_argument]); default tolerance [1e-13] on the
    argument. *)

val solve :
  ?tol:float -> f:(float -> float) -> lo:float -> hi:float -> steps:int -> unit -> float
(** Scan [steps] equal sub-intervals of [lo..hi] for the first one
    across which [f] changes sign (infinite values are skipped), then
    {!bisect} it; raises [Failure] when no sign change is found. *)

val solve_offset :
  ?tol:float ->
  f:(float -> float) ->
  origin:float ->
  max_offset:float ->
  steps:int ->
  unit ->
  float
(** Root finding for functions whose root sits at an unknown, possibly
    tiny offset above [origin]: scans offsets [δ] on a geometric grid
    from [1e-14·max_offset] up to [max_offset] (then bisects on [δ]) and
    returns [origin + δ].  Needed by the Table 1/2 systems where
    [α₂ - α₁] shrinks to [1e-5] and below as [k] grows. *)
