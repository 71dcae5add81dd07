let binomial n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let r = ref 1 in
    for i = 1 to k do
      r := !r * (n - k + i) / i
    done;
    !r
  end

(* One cardinality layer of the DP, bit-packed: entry [r] of an extent
   holds the (cost, choice) of the k-subset whose combinatorial (colex)
   rank within [j_set] is [r].  8-byte LE cost + 1-byte choice — a fixed
   9 bytes per subset, where a hashtable binding costs ~10x that in
   boxed words.

   A branch-and-bound sweep leaves pruned subsets unset (a negative
   cost); the in-memory layout stays dense (rank arithmetic is the whole
   point).  [Extent.encode] writes the one wire format, v3: a
   delta+varint stream over the set entries, so cost locality shrinks
   checkpoints. *)

let entry_bytes = 9
let extent_version = 3
let extent_header_bytes = 30

(* --- combinatorial number system helpers ------------------------------ *)

let pascal_table ~m ~k =
  let t = Array.make_matrix (m + 1) (k + 1) 0 in
  for p = 0 to m do
    t.(p).(0) <- 1;
    for i = 1 to min p k do
      t.(p).(i) <- t.(p - 1).(i - 1) + t.(p - 1).(i)
    done
  done;
  t

(* Combinatorial number system: the rank of {c_1 < ... < c_k} among the
   k-subsets in increasing-bitmask (= colex) order is sum_i C(c_i, i),
   where c_i is the position of the i-th element within [j_set].  This
   matches the order {!Varset.iter_subsets_of} enumerates.

   Both directions are top-level loops over plain ints with no free
   variables, so a call allocates nothing (a local closure over refs
   would allocate on every call).  [rank_walk] visits [j]'s members
   upward, [pos] being the position of the lowest one and [i] the number
   of [ksub] members seen so far. *)
let rec rank_walk pascal j ksub pos i r =
  if ksub land j = 0 then r
  else
    let low = j land -j in
    if ksub land low = 0 then rank_walk pascal (j lxor low) ksub (pos + 1) i r
    else
      rank_walk pascal (j lxor low) (ksub lxor low) (pos + 1) (i + 1)
        (r + pascal.(pos).(i + 1))

let rank_in ~pascal ~j_set ksub = rank_walk pascal j_set ksub 0 0 0

(* Inverse of {!rank_in}: peel off the largest position p with
   C(p,i) <= r for i = k downto 1, collecting the positions as a bitmask
   over [0, m); [spread] then maps each position to [j]'s member there. *)
let rec unrank_walk pascal p i r positions =
  if i = 0 then positions
  else if pascal.(p).(i) > r then unrank_walk pascal (p - 1) i r positions
  else unrank_walk pascal p (i - 1) (r - pascal.(p).(i)) (positions lor (1 lsl p))

let rec spread j positions pos sub =
  if positions lsr pos = 0 then sub
  else
    let low = j land -j in
    spread (j lxor low) positions (pos + 1)
      (if positions land (1 lsl pos) <> 0 then sub lor low else sub)

let unrank_in ~pascal ~j_set ~k r =
  spread j_set (unrank_walk pascal (Varset.cardinal j_set - 1) k r 0) 0 0

(* --- zig-zag varints (LEB128) ----------------------------------------- *)

(* Costs along colex order move in small steps, so the v3 stream stores
   per-entry deltas as zig-zag varints: 1–2 bytes where the dense layout
   spends 8. *)

let varint_add buf v =
  if v < 0 then invalid_arg "Layer_pack: negative varint";
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

let zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))
let unzigzag v = (v lsr 1) lxor (- (v land 1))

(* Read one LEB128 varint at [!pos]; raises on truncation or a value
   that cannot have been written by [varint_add] (> 9 septets). *)
let read_varint fail s pos =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !pos >= String.length s then fail "truncated varint";
    if !shift > 62 then fail "varint overflow";
    let b = String.get_uint8 s !pos in
    incr pos;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  !v

(* --- the v3 extent header -------------------------------------------- *)

(* [u8 version][u8 k][u64 j_set][u32 total][u32 lo][u32 len][u32 present]
   [u32 payload length], all LE.  [lo] and [len] date from extents that
   held a rank range of their layer: a record spans its layer, so they
   always read [0] and [total]. *)
type header = {
  h_k : int;
  h_j_set : Varset.t;
  h_total : int;
  h_present : int;
  h_payload_len : int;
}

(* Parse the header and check it against itself and the payload length
   before anything is sized by it: a damaged or hostile header fails
   here, never as an out-of-bounds read or an oversized buffer.  Every
   entry of the stream takes at least 3 bytes (rank gap, cost delta,
   choice).  Any other version, the spill era's raw v4 included, is
   refused. *)
let read_header fail s =
  let slen = String.length s in
  if slen < extent_header_bytes then fail "payload shorter than header";
  let u32 i = Int32.to_int (String.get_int32_le s i) land 0xFFFF_FFFF in
  if String.get_uint8 s 0 <> extent_version then fail "unknown version";
  let h =
    {
      h_k = String.get_uint8 s 1;
      h_j_set = Int64.to_int (String.get_int64_le s 2);
      h_total = u32 10;
      h_present = u32 22;
      h_payload_len = u32 26;
    }
  in
  if h.h_j_set < 0 || h.h_k < 1 || h.h_k > Varset.cardinal h.h_j_set then
    fail "inconsistent header";
  if h.h_total <> binomial (Varset.cardinal h.h_j_set) h.h_k then
    fail "entry count does not match layer";
  if u32 14 <> 0 || u32 18 <> h.h_total then
    fail "extent does not span its layer";
  if h.h_present > h.h_total then fail "inconsistent header";
  if slen <> extent_header_bytes + h.h_payload_len then fail "truncated extent";
  if h.h_payload_len < 3 * h.h_present then
    fail "payload too short for its entries";
  h

(* Decode the stream of header [h] into the dense layer [dst].  Every
   rank must lie inside the layer. *)
let decompress_into fail s h ~dst =
  let limit = extent_header_bytes + h.h_payload_len in
  let cursor = ref extent_header_bytes in
  let prev_rank = ref (-1) and prev_cost = ref 0 in
  for _ = 1 to h.h_present do
    if !cursor >= limit then fail "truncated stream";
    let gap = read_varint fail s cursor in
    if gap <= 0 then fail "non-increasing rank" (* gap 0 = duplicate *);
    if gap >= h.h_total - !prev_rank then fail "entry rank out of range";
    let rank = !prev_rank + gap in
    let cost = !prev_cost + unzigzag (read_varint fail s cursor) in
    if cost < 0 then fail "negative cost";
    if !cursor >= limit then fail "truncated choice";
    let ch = String.get_uint8 s !cursor in
    incr cursor;
    prev_rank := rank;
    prev_cost := cost;
    let off = rank * entry_bytes in
    Bytes.set_int64_le dst off (Int64.of_int cost);
    Bytes.set_uint8 dst (off + 8) ch
  done;
  if !cursor <> limit then fail "trailing stream bytes"

(* --- extents ------------------------------------------------------------ *)

module Extent = struct
  type t = {
    x_j_set : Varset.t;
    x_k : int;
    x_total : int;  (* C(|j_set|, k): the layer's subset count *)
    x_data : Bytes.t;  (* dense 9 B/entry, by rank; an unset cost is < 0 *)
  }

  let j_set t = t.x_j_set
  let k t = t.x_k
  let total t = t.x_total
  let size_bytes t = extent_header_bytes + (t.x_total * entry_bytes)

  let make ~j_set ~k ~total =
    {
      x_j_set = j_set;
      x_k = k;
      x_total = total;
      x_data = Bytes.make (total * entry_bytes) '\xff';
    }

  let create ~j_set ~k ~total =
    let m = Varset.cardinal j_set in
    if k < 0 || k > m || total <> binomial m k then
      invalid_arg "Layer_pack.Extent.create: bad layer shape";
    make ~j_set ~k ~total

  let off_of t rank =
    if rank < 0 || rank >= t.x_total then
      invalid_arg "Layer_pack.Extent: rank outside the layer";
    rank * entry_bytes

  let set t ~rank ~cost ~choice =
    if cost < 0 then invalid_arg "Layer_pack.Extent.set: negative cost";
    if choice < 0 || choice > 0xff then
      invalid_arg "Layer_pack.Extent.set: bad choice";
    let off = off_of t rank in
    Bytes.set_int64_le t.x_data off (Int64.of_int cost);
    Bytes.set_uint8 t.x_data (off + 8) choice

  let mem t ~rank = Bytes.get_int64_le t.x_data (off_of t rank) >= 0L

  let cost t ~rank =
    let c = Int64.to_int (Bytes.get_int64_le t.x_data (off_of t rank)) in
    if c < 0 then invalid_arg "Layer_pack.Extent.cost: entry never set";
    c

  let choice t ~rank =
    let off = off_of t rank in
    if Bytes.get_int64_le t.x_data off < 0L then
      invalid_arg "Layer_pack.Extent.choice: entry never set";
    Bytes.get_uint8 t.x_data (off + 8)

  let iter t f =
    for rank = 0 to t.x_total - 1 do
      let off = rank * entry_bytes in
      let c = Bytes.get_int64_le t.x_data off in
      if c >= 0L then
        f ~rank ~cost:(Int64.to_int c)
          ~choice:(Bytes.get_uint8 t.x_data (off + 8))
    done

  let present t =
    let n = ref 0 in
    iter t (fun ~rank:_ ~cost:_ ~choice:_ -> incr n);
    !n

  (* The v3 stream: for every set entry, in rank order,
     [varint gap-from-previous-set-rank] (first: gap from [-1]) ++
     [zig-zag varint cost delta] (first: delta from 0) ++ [u8 choice].
     Costs within a layer are small and monotone-ish in colex order, so
     deltas are mostly 1-byte. *)
  let encode t =
    let buf = Buffer.create (t.x_total * 3) in
    let present = ref 0 and prev_rank = ref (-1) and prev_cost = ref 0 in
    iter t (fun ~rank ~cost ~choice ->
        varint_add buf (rank - !prev_rank);
        varint_add buf (zigzag (cost - !prev_cost));
        Buffer.add_uint8 buf choice;
        incr present;
        prev_rank := rank;
        prev_cost := cost);
    let len = Buffer.length buf in
    let b = Bytes.create (extent_header_bytes + len) in
    Bytes.set_uint8 b 0 extent_version;
    Bytes.set_uint8 b 1 t.x_k;
    Bytes.set_int64_le b 2 (Int64.of_int t.x_j_set);
    List.iteri
      (fun i v -> Bytes.set_int32_le b (10 + (4 * i)) (Int32.of_int v))
      [ t.x_total; 0; t.x_total; !present; len ];
    Buffer.blit buf 0 b extent_header_bytes len;
    Bytes.unsafe_to_string b

  (* Every header field is checked before the layer is allocated, and a
     complete extent has [total = present]: the allocation is bounded by
     the payload's own length (9 B per at least 3 B of stream), whatever
     the header claims. *)
  let decode s =
    let fail msg = failwith ("Layer_pack.Extent.decode: " ^ msg) in
    let h = read_header fail s in
    if h.h_present <> h.h_total then fail "extent is not complete";
    let t = make ~j_set:h.h_j_set ~k:h.h_k ~total:h.h_total in
    decompress_into fail s h ~dst:t.x_data;
    t
end
