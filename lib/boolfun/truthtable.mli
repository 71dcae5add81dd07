(** Truth tables of Boolean functions.

    A value of type [t] represents a total function
    [f : {0,1}^n -> {0,1}].  Assignments are encoded as integers: bit [j]
    of the index (0 = least significant) is the value given to variable
    [j], with variables numbered [0 .. n-1].  The table of an [n]-variable
    function has [2^n] entries; [n] is limited to the host word size
    (practically [n <= 25] or so for memory reasons).

    This module is the ground-truth representation against which every
    diagram and every optimiser in the repository is checked. *)

type t

val arity : t -> int
(** Number of variables [n]. *)

val size : t -> int
(** Number of entries, [2^n]. *)

val of_fun : int -> (int -> bool) -> t
(** [of_fun n f] tabulates [f] over all [2^n] assignment codes.  This is
    the [O*(2^n)] truth-table extraction step of the paper's Corollary 2:
    [f] may evaluate any representation (expression, circuit, diagram). *)

val of_string : string -> t
(** [of_string "0110"] is the 2-variable XOR (length must be a power of
    two); entry [i] of the string is [f] at assignment code [i]. *)

val to_string : t -> string

val const : int -> bool -> t
(** [const n b] is the constant function of arity [n]. *)

val var : int -> int -> t
(** [var n j] is the projection [x_j] as an [n]-variable function. *)

val eval : t -> int -> bool
(** [eval tt code] is [f] at assignment [code]. *)

val eval_bits : t -> bool array -> bool
(** [eval_bits tt a] evaluates with [a.(j)] the value of variable [j];
    [Array.length a] must equal the arity. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val count_ones : t -> int
(** Number of satisfying assignments. *)

val is_const : t -> bool option
(** [Some b] when the function is constantly [b], else [None]. *)

val restrict : t -> int -> bool -> t
(** [restrict tt j b] is [f] with variable [j] fixed to [b], as a function
    of the remaining [n-1] variables.  Variables above [j] are renumbered
    down by one (variable [k > j] becomes [k-1]). *)

val cofactors : t -> int -> t * t
(** [cofactors tt j] is [(restrict tt j false, restrict tt j true)]. *)

val depends_on : t -> int -> bool
(** [depends_on tt j] iff the two cofactors w.r.t. [j] differ. *)

val support : t -> int list
(** Variables the function essentially depends on, ascending. *)

val not_ : t -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val xor : t -> t -> t
(** Pointwise connectives; binary ones require equal arities. *)

val flip : t -> int -> t
(** [flip tt j] is [f] with input [j] negated:
    [eval (flip tt j) code = eval tt (code lxor (1 lsl j))].  Word
    parallel, so [xor tt (flip tt j)] — where flipping [j] flips [f] —
    costs a few passes over the packed bits. *)

val permute_vars : t -> int array -> t
(** [permute_vars tt perm] relabels variables: the result [g] satisfies
    [g(y) = f(x)] where [x.(perm.(j)) = y.(j)].  [perm] must be a
    permutation of [0 .. n-1].  In other words, variable [perm.(j)] of [f]
    becomes variable [j] of [g]. *)

val canonicalize : ?max_enum:int -> t -> t * int array
(** [canonicalize tt] is [(canon, perm)] — a canonical representative of
    [tt] under variable relabeling, with [canon = permute_vars tt perm]
    (so variable [j] of [canon] is variable [perm.(j)] of [tt]).

    Variables are ranked by permutation-invariant fingerprints (per-pair
    satisfying-assignment counts, refined to a fixpoint); residual ties
    are resolved either by a symmetry check (interchangeable variables
    need no choice) or by exhausting the tied orders and keeping the
    lexicographically smallest table.  The search is capped at
    [max_enum] (default 720) candidate orders: within the cap the result
    is identical for every permutation-equivalent input; beyond it the
    result is still deterministic per input, merely not guaranteed to
    coincide across permutations.  An ordering optimal for [canon] maps
    back to one for [tt] through [perm].

    The counts come from popcounts of 32-bit words
    ({!Bitvec.index_counts}) and every candidate order is applied by
    {!Bitvec.permute_index}: no step walks the table bit by bit. *)

val digest_of_canonical : t -> string
(** The digest of a table taken as already canonical:
    [digest tt = digest_of_canonical (fst (canonicalize tt))].  For
    callers that need both the canonicalizing permutation and the
    digest, this avoids canonicalizing twice. *)

val digest : t -> string
(** A stable content digest of the {!canonicalize}d function: the
    variable count and a 64-bit FNV-1a hash of the canonical bit-vector
    (the arity's low byte, then the table packed eight entries per
    byte, entry [8i + b] at bit [b] of byte [i]), as
    ["<n>:<16 hex digits>"].  Equal functions always collide;
    permutation-equivalent functions collide whenever canonicalization
    stayed within its enumeration cap.  Intended as a cache key — pair
    it with an equality check on the canonical table to rule out hash
    collisions.  The canonical table, its permutation and this string
    are a persistent format: stores key answers by the digest. *)

val random : Random.State.t -> int -> t
(** Uniformly random function of the given arity. *)

val pp : Format.formatter -> t -> unit
