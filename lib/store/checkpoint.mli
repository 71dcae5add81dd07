(** Checkpoint/resume for the exact Friedman–Supowit sweep.

    A checkpoint file is an {!Rlog} with one [meta] record (what run
    this is: exact-table digest and diagram kind) followed by one
    [layer] record per completed cardinality layer — the DP's [on_layer]
    hook fires at the same boundaries cancellation is polled.

    A layer record is {e one extent spanning the layer}: the payload is
    {!Ovo_core.Layer_pack.Extent.encode} of the extent with [lo = 0] and
    [len = C(m,k)] — the v3 stream — the form the DP's table takes in
    memory, so checkpoints share the pack format's encoder and damage
    checks.  A record of another type or format — an older writer's
    triple-format (type 1), whole-layer v1/v2 or raw v4 record — ends
    the resume prefix, so that layer and its successors are
    recomputed.

    Because layer states are rebuilt by deterministically replaying the
    recorded choice chains, a run killed at any point and resumed from
    its checkpoint produces a solution bit-identical to an uninterrupted
    run, under both {!Ovo_core.Engine.Seq} and {!Ovo_core.Engine.Par}.
    A torn final record (kill -9 mid-append) is truncated away on
    reopen and merely costs re-running that one layer. *)

type meta = {
  ck_digest : string;
      (** {!Ovo_boolfun.Truthtable.digest_of_canonical} of the exact
          input table — an as-is content hash, no canonicalization *)
  ck_kind : Ovo_core.Compact.kind;
}

val meta_of :
  kind:Ovo_core.Compact.kind -> Ovo_boolfun.Truthtable.t -> meta

type t
(** An open checkpoint writer. *)

val create : ?fsync:Rlog.fsync -> path:string -> meta -> t
(** Start a fresh checkpoint, truncating any existing file. *)

val append_layer : t -> Ovo_core.Subset_dp.progress -> unit
(** Persist one completed layer — the [on_layer] hook.  The layer must
    be complete (unpruned). *)

val close : t -> unit

val load :
  string -> (meta * Ovo_core.Subset_dp.progress list, string) result
(** Read a checkpoint: the meta record plus the longest consecutive
    prefix of layers [1..m] that decodes cleanly (torn, corrupt or
    foreign-format records end the prefix).  [Error] when the file is
    missing, carries a foreign magic, or has no valid meta record.
    Total on hostile bytes: a CRC-valid record with any payload ends the
    prefix or decodes, never raises, and makes [load] allocate no more
    than a small multiple of the record's own length. *)

val open_resume :
  ?fsync:Rlog.fsync ->
  path:string ->
  meta ->
  t * Ovo_core.Subset_dp.progress list
(** Resume: when [path] holds a checkpoint whose meta matches, the file
    is compacted back to its valid prefix (meta + layers [1..m],
    atomically rewritten) and reopened for appending layer [m+1]; the
    recovered layers are returned for the DP's [resume] argument.
    Raises [Failure] when the file exists but records a {e different}
    run (digest or kind mismatch) — resuming it would corrupt both
    runs.  Only a file that holds no record yet
    ({!Rlog.holds_no_record}: missing, empty, or torn inside or just
    past the log's magic) degrades to {!create}; any other file — a
    foreign magic, or a log whose first record is not a checkpoint
    meta — raises [Failure] naming [path] and is left byte for byte as
    it was. *)
