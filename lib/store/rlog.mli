(** Crash-safe record log — the framing layer every durable file in the
    store uses ({!Result_store} snapshots and WALs, {!Checkpoint} files).

    A log is an 8-byte magic header followed by length-prefixed,
    CRC-framed records:

    {v [u32 LE len] [u32 LE crc32(body)] [body = u8 rtype ++ payload] v}

    Recovery scans from the header and stops at the first frame that
    does not check out — short length, absurd length, or CRC mismatch —
    and the writing side truncates the file back to that point, so a
    torn tail (kill -9 mid-append, disk-full) costs exactly the
    in-flight record and nothing before it.  Appends are single
    [Unix.write] calls with no userspace buffering: anything a
    successful {!append} wrote survives process death; the {!fsync}
    policy only governs survival of a {e machine} crash. *)

type fsync =
  | Always  (** fsync after every append — slow, machine-crash safe *)
  | Interval of float  (** fsync at most every [s] seconds *)
  | Never  (** leave flushing to the OS *)

val fsync_of_string : string -> (fsync, string) result
(** ["always"], ["never"], ["interval"] (1 s) or ["interval:<seconds>"]. *)

val fsync_to_string : fsync -> string

type record = { rtype : int; payload : string }

type recovery = {
  rec_valid : int;  (** records in the valid prefix *)
  rec_discarded_bytes : int;  (** trailing bytes dropped past it *)
}

val read : string -> (record list * recovery, string) result
(** All records of the valid prefix, read-only.  [Error] when the file
    cannot be read or carries a foreign magic; a missing file is an
    [Error] too. *)

val holds_no_record : string -> bool
(** [true] when [path] is missing, or is a log that holds no record
    yet: empty, torn inside the magic, or the magic with no valid
    record after it.  A file with a foreign magic, or any valid record,
    is [false]. *)

type t
(** An open, appendable log. *)

val open_append : ?fsync:fsync -> string -> t * record list * recovery
(** Open for appending, creating the file (with header) when missing.
    An existing file is recovered first — truncated back to its valid
    prefix, whose records are returned — so new appends never follow
    garbage.  A file shorter than the magic starts a fresh log only
    when its bytes are a prefix of the magic (a torn header).  Raises
    [Failure] on a foreign magic, short or not (the file is not
    touched).  [fsync] defaults to {!Never}. *)

val create : ?fsync:fsync -> string -> t
(** Open fresh, truncating any existing content. *)

val append : t -> rtype:int -> string -> unit
(** Frame and append one record ([rtype] must fit a byte), then apply
    the fsync policy. *)

val sync : t -> unit
(** Unconditional fsync. *)

val size : t -> int
(** Current file size in bytes (header included). *)

val path : t -> string
val close : t -> unit

val write_atomic : ?fsync:fsync -> string -> (int * string) list -> unit
(** Write a whole log — header plus [(rtype, payload)] records — to
    [path ^ ".tmp"], fsync, then rename over [path]: readers see either
    the old file or the complete new one, never a partial write.  Used
    for snapshot compaction. *)
