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

(* One cardinality layer of the DP, bit-packed: entry [r] of [data] holds
   the (cost, choice) of the k-subset whose combinatorial (colex) rank
   within [j_set] is [r].  8-byte LE cost + 1-byte choice — a fixed 9
   bytes per subset where the hashtable pair cost ~10x that in boxed
   words, and a layout that serialises to a spill payload for free.

   A branch-and-bound sweep leaves pruned subsets unset; the in-memory
   layout stays dense (rank arithmetic is the whole point) but [encode]
   switches to a sparse (rank, cost, choice) triple format or a
   delta+varint compressed stream whenever that is smaller, so both
   pruning and cost locality shrink spill volume. *)

let entry_bytes = 9
let header_bytes = 14
let version = 1
let sparse_header_bytes = 18
let sparse_entry_bytes = 13
let sparse_version = 2
let packed_version = 3
let raw_extent_version = 4
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
   per-entry deltas as zig-zag varints: 1–2 bytes where the raw layout
   spends 8.  Duplicated (deliberately) from [Ovo_store.Codec]: ovo.core
   must not depend on the store layer. *)

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

(* --- payload sources --------------------------------------------------- *)

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type src = S_string of string | S_big of bigstring

let src_len = function
  | S_string s -> String.length s
  | S_big b -> Bigarray.Array1.dim b

let src_length = src_len

let src_get s i =
  match s with S_string s -> s.[i] | S_big b -> Bigarray.Array1.get b i

let src_u8 s i = Char.code (src_get s i)

let src_u32 s i =
  src_u8 s i
  lor (src_u8 s (i + 1) lsl 8)
  lor (src_u8 s (i + 2) lsl 16)
  lor (src_u8 s (i + 3) lsl 24)

let src_i64 s i =
  let v = ref 0L in
  for j = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (src_u8 s (i + j)))
  done;
  !v

(* Read one LEB128 varint at [!pos]; raises on truncation or a value
   that cannot have been written by [varint_add] (> 9 septets). *)
let src_varint fail s pos =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !pos >= src_len s then fail "truncated varint";
    if !shift > 62 then fail "varint overflow";
    let b = src_u8 s !pos in
    incr pos;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  !v

type t = {
  j_set : Varset.t;
  k : int;
  count : int;
  mutable present : int;
  pascal : int array array;
      (* pascal.(p).(i) = C(p,i), for the rank formula above *)
  data : Bytes.t;
}

let create ~j_set ~k =
  let m = Varset.cardinal j_set in
  if k < 1 || k > m then invalid_arg "Layer_pack.create: bad cardinality";
  let count = binomial m k in
  let data = Bytes.make (count * entry_bytes) '\xff' in
  { j_set; k; count; present = 0; pascal = pascal_table ~m ~k; data }

let k t = t.k
let j_set t = t.j_set
let count t = t.count
let present t = t.present
let size_bytes t = header_bytes + Bytes.length t.data
let rank t ksub =
  if (not (Varset.subset ksub t.j_set)) || Varset.cardinal ksub <> t.k then
    invalid_arg "Layer_pack: subset not of this layer";
  rank_in ~pascal:t.pascal ~j_set:t.j_set ksub

let unrank t r = unrank_in ~pascal:t.pascal ~j_set:t.j_set ~k:t.k r
let is_set_at t off = Bytes.get_int64_le t.data off >= 0L

let set t ksub ~cost ~choice =
  if cost < 0 then invalid_arg "Layer_pack.set: negative cost";
  if choice < 0 || choice > 0xff then invalid_arg "Layer_pack.set: bad choice";
  let off = rank t ksub * entry_bytes in
  if not (is_set_at t off) then t.present <- t.present + 1;
  Bytes.set_int64_le t.data off (Int64.of_int cost);
  Bytes.set_uint8 t.data (off + 8) choice

let mem t ksub = is_set_at t (rank t ksub * entry_bytes)

let cost t ksub =
  let off = rank t ksub * entry_bytes in
  let c = Int64.to_int (Bytes.get_int64_le t.data off) in
  if c < 0 then invalid_arg "Layer_pack.cost: entry never set";
  c

let choice t ksub =
  let off = rank t ksub * entry_bytes in
  if Bytes.get_int64_le t.data off < 0L then
    invalid_arg "Layer_pack.choice: entry never set";
  Bytes.get_uint8 t.data (off + 8)

let of_entries ~j_set ~k entries =
  let t = create ~j_set ~k in
  if Array.length entries > t.count then
    invalid_arg "Layer_pack.of_entries: more entries than subsets";
  Array.iter (fun (ksub, cost, choice) -> set t ksub ~cost ~choice) entries;
  t

(* Unset (pruned) subsets are skipped: a partial layer iterates only the
   states the sweep kept. *)
let iter t f =
  Varset.iter_subsets_of t.j_set ~size:t.k (fun ksub ->
      let off = rank t ksub * entry_bytes in
      if is_set_at t off then
        f ksub
          ~cost:(Int64.to_int (Bytes.get_int64_le t.data off))
          ~choice:(Bytes.get_uint8 t.data (off + 8)))

let entries t =
  let out = Array.make t.present (Varset.empty, 0, 0) in
  let i = ref 0 in
  iter t (fun ksub ~cost ~choice ->
      out.(!i) <- (ksub, cost, choice);
      incr i);
  out

(* --- v3/v4 stream helpers over a raw dense buffer ----------------------
   Shared by the whole-layer encoder and the extent encoder: both hold a
   dense 9 B/entry slice and differ only in the header they prepend. *)

let set_extent_header b ~ver ~k ~j_set ~total ~lo ~len ~present ~payload_len =
  Bytes.set_uint8 b 0 ver;
  Bytes.set_uint8 b 1 k;
  Bytes.set_int64_le b 2 (Int64.of_int j_set);
  Bytes.set_int32_le b 10 (Int32.of_int total);
  Bytes.set_int32_le b 14 (Int32.of_int lo);
  Bytes.set_int32_le b 18 (Int32.of_int len);
  Bytes.set_int32_le b 22 (Int32.of_int present);
  Bytes.set_int32_le b 26 (Int32.of_int payload_len)

(* The compressed stream over a dense slice: for every set entry, in
   rank order, [varint gap-from-previous-set-rank] (first: gap from
   [lo - 1]) ++ [zig-zag varint cost delta] (first: delta from 0) ++
   [u8 choice].  Costs within a layer are small and monotone-ish in
   colex order, so deltas are mostly 1-byte. *)
let compress_slice data ~off ~len ~lo =
  let buf = Buffer.create (len * 3) in
  let prev_rank = ref (lo - 1) and prev_cost = ref 0 in
  for i = 0 to len - 1 do
    let eoff = off + (i * entry_bytes) in
    let c64 = Bytes.get_int64_le data eoff in
    if c64 >= 0L then begin
      let rank = lo + i and cost = Int64.to_int c64 in
      varint_add buf (rank - !prev_rank);
      varint_add buf (zigzag (cost - !prev_cost));
      Buffer.add_char buf (Bytes.get data (eoff + 8));
      prev_rank := rank;
      prev_cost := cost
    end
  done;
  Buffer.contents buf

(* Decode a v3 payload stream into a dense slice.  [want_lo]/[want_len]
   select the sub-range to keep (containment slicing — a whole-layer v3
   payload can serve one extent's reload); entries outside it are walked
   but not stored. *)
let decompress_into fail s ~pos ~payload_len ~src_lo ~src_present ~dst
    ~want_lo ~want_len =
  let limit = pos + payload_len in
  let cursor = ref pos in
  let prev_rank = ref (src_lo - 1) and prev_cost = ref 0 in
  let stored = ref 0 in
  for _ = 1 to src_present do
    if !cursor >= limit then fail "truncated stream";
    let gap = src_varint fail s cursor in
    if gap <= 0 then fail "non-increasing rank" (* gap 0 = duplicate *);
    let rank = !prev_rank + gap in
    let cost = !prev_cost + unzigzag (src_varint fail s cursor) in
    if cost < 0 then fail "negative cost";
    if !cursor >= limit then fail "truncated choice";
    let ch = src_u8 s !cursor in
    incr cursor;
    prev_rank := rank;
    prev_cost := cost;
    if rank >= want_lo && rank < want_lo + want_len then begin
      let off = (rank - want_lo) * entry_bytes in
      Bytes.set_int64_le dst off (Int64.of_int cost);
      Bytes.set_uint8 dst (off + 8) ch;
      incr stored
    end
  done;
  if !cursor <> limit then fail "trailing stream bytes";
  (!prev_rank, !stored)

let encode_dense t =
  let b = Bytes.create (header_bytes + Bytes.length t.data) in
  Bytes.set_uint8 b 0 version;
  Bytes.set_uint8 b 1 t.k;
  Bytes.set_int64_le b 2 (Int64.of_int t.j_set);
  Bytes.set_int32_le b 10 (Int32.of_int t.count);
  Bytes.blit t.data 0 b header_bytes (Bytes.length t.data);
  Bytes.unsafe_to_string b

let encode_sparse t =
  let b = Bytes.create (sparse_header_bytes + (t.present * sparse_entry_bytes)) in
  Bytes.set_uint8 b 0 sparse_version;
  Bytes.set_uint8 b 1 t.k;
  Bytes.set_int64_le b 2 (Int64.of_int t.j_set);
  Bytes.set_int32_le b 10 (Int32.of_int t.count);
  Bytes.set_int32_le b 14 (Int32.of_int t.present);
  let out = ref sparse_header_bytes in
  for r = 0 to t.count - 1 do
    let off = r * entry_bytes in
    if is_set_at t off then begin
      Bytes.set_int32_le b !out (Int32.of_int r);
      Bytes.set_int64_le b (!out + 4) (Bytes.get_int64_le t.data off);
      Bytes.set_uint8 b (!out + 12) (Bytes.get_uint8 t.data (off + 8));
      out := !out + sparse_entry_bytes
    end
  done;
  Bytes.unsafe_to_string b

let encode_packed t =
  let stream = compress_slice t.data ~off:0 ~len:t.count ~lo:0 in
  let b = Bytes.create (extent_header_bytes + String.length stream) in
  set_extent_header b ~ver:packed_version ~k:t.k ~j_set:t.j_set ~total:t.count
    ~lo:0 ~len:t.count ~present:t.present
    ~payload_len:(String.length stream);
  Bytes.blit_string stream 0 b extent_header_bytes (String.length stream);
  Bytes.unsafe_to_string b

let encode t =
  let candidates = [ encode_packed t; encode_sparse t; encode_dense t ] in
  List.fold_left
    (fun best c -> if String.length c < String.length best then c else best)
    (List.hd candidates) (List.tl candidates)

let decode s =
  let fail msg = failwith (Printf.sprintf "Layer_pack.decode: %s" msg) in
  if String.length s < header_bytes then fail "payload shorter than header";
  let v = Char.code s.[0] in
  if v <> version && v <> sparse_version && v <> packed_version then
    fail "unknown version";
  let k = Char.code s.[1] in
  let j_set = Int64.to_int (String.get_int64_le s 2) in
  let count = Int32.to_int (String.get_int32_le s 10) in
  let m = Varset.cardinal j_set in
  if j_set < 0 || k < 1 || k > m then fail "inconsistent header";
  if count <> binomial m k then fail "entry count does not match layer";
  let t = create ~j_set ~k in
  (if v = version then begin
     if String.length s <> header_bytes + (count * entry_bytes) then
       fail "truncated layer data";
     Bytes.blit_string s header_bytes t.data 0 (count * entry_bytes);
     (* recover [present] by scanning for set sign bits *)
     for r = 0 to count - 1 do
       if is_set_at t (r * entry_bytes) then t.present <- t.present + 1
     done
   end
   else if v = sparse_version then begin
     if String.length s < sparse_header_bytes then
       fail "payload shorter than sparse header";
     let present = Int32.to_int (String.get_int32_le s 14) in
     if present < 0 || present > count then fail "inconsistent sparse header";
     if String.length s <> sparse_header_bytes + (present * sparse_entry_bytes)
     then fail "truncated layer data";
     for i = 0 to present - 1 do
       let off = sparse_header_bytes + (i * sparse_entry_bytes) in
       let r = Int32.to_int (String.get_int32_le s off) in
       if r < 0 || r >= count then fail "entry rank out of range";
       let c = String.get_int64_le s (off + 4) in
       if c < 0L then fail "negative cost in sparse entry";
       let doff = r * entry_bytes in
       if not (is_set_at t doff) then t.present <- t.present + 1;
       Bytes.set_int64_le t.data doff c;
       Bytes.set_uint8 t.data (doff + 8) (Char.code s.[off + 12])
     done;
     if t.present <> present then fail "duplicate rank in sparse entries"
   end
   else begin
     (* v3: a compressed stream — accepted here only when it covers the
        whole layer (an extent payload is not a layer) *)
     if String.length s < extent_header_bytes then
       fail "payload shorter than extent header";
     let lo = Int32.to_int (String.get_int32_le s 14) in
     let len = Int32.to_int (String.get_int32_le s 18) in
     let present = Int32.to_int (String.get_int32_le s 22) in
     let payload_len = Int32.to_int (String.get_int32_le s 26) in
     if lo <> 0 || len <> count then fail "extent payload, not a whole layer";
     if present < 0 || present > count then fail "inconsistent header";
     if String.length s <> extent_header_bytes + payload_len then
       fail "truncated layer data";
     let last_rank, stored =
       decompress_into fail (S_string s) ~pos:extent_header_bytes ~payload_len
         ~src_lo:0 ~src_present:present ~dst:t.data ~want_lo:0 ~want_len:count
     in
     if last_rank >= count then fail "entry rank out of range";
     t.present <- stored
   end);
  t

(* --- extents ------------------------------------------------------------ *)

module Extent = struct
  type data = Heap of Bytes.t | Map of bigstring

  type t = {
    x_j_set : Varset.t;
    x_k : int;
    x_total : int;  (* C(|j_set|, k): the whole layer's subset count *)
    x_lo : int;
    x_len : int;
    mutable x_present : int;
    x_data : data;  (* dense 9 B/entry slice for ranks [lo, lo+len) *)
  }

  let j_set t = t.x_j_set
  let k t = t.x_k
  let total t = t.x_total
  let lo t = t.x_lo
  let len t = t.x_len
  let present t = t.x_present
  let size_bytes t = extent_header_bytes + (t.x_len * entry_bytes)

  let create ~j_set ~k ~total ~lo ~len =
    let m = Varset.cardinal j_set in
    if k < 1 || k > m || total <> binomial m k then
      invalid_arg "Layer_pack.Extent.create: bad layer shape";
    if lo < 0 || len < 1 || lo + len > total then
      invalid_arg "Layer_pack.Extent.create: bad extent range";
    {
      x_j_set = j_set;
      x_k = k;
      x_total = total;
      x_lo = lo;
      x_len = len;
      x_present = 0;
      x_data = Heap (Bytes.make (len * entry_bytes) '\xff');
    }

  let data_i64 d off =
    match d with
    | Heap b -> Bytes.get_int64_le b off
    | Map b ->
        let v = ref 0L in
        for j = 7 downto 0 do
          v :=
            Int64.logor (Int64.shift_left !v 8)
              (Int64.of_int (Char.code (Bigarray.Array1.get b (off + j))))
        done;
        !v

  let data_u8 d off =
    match d with
    | Heap b -> Bytes.get_uint8 b off
    | Map b -> Char.code (Bigarray.Array1.get b off)

  let off_of t rank =
    if rank < t.x_lo || rank >= t.x_lo + t.x_len then
      invalid_arg "Layer_pack.Extent: rank outside this extent";
    (rank - t.x_lo) * entry_bytes

  let set t ~rank ~cost ~choice =
    if cost < 0 then invalid_arg "Layer_pack.Extent.set: negative cost";
    if choice < 0 || choice > 0xff then
      invalid_arg "Layer_pack.Extent.set: bad choice";
    let off = off_of t rank in
    match t.x_data with
    | Map _ -> invalid_arg "Layer_pack.Extent.set: mapped extents are read-only"
    | Heap b ->
        if Bytes.get_int64_le b off < 0L then t.x_present <- t.x_present + 1;
        Bytes.set_int64_le b off (Int64.of_int cost);
        Bytes.set_uint8 b (off + 8) choice

  let mem t ~rank = data_i64 t.x_data (off_of t rank) >= 0L

  let cost t ~rank =
    let c = Int64.to_int (data_i64 t.x_data (off_of t rank)) in
    if c < 0 then invalid_arg "Layer_pack.Extent.cost: entry never set";
    c

  let choice t ~rank =
    let off = off_of t rank in
    if data_i64 t.x_data off < 0L then
      invalid_arg "Layer_pack.Extent.choice: entry never set";
    data_u8 t.x_data (off + 8)

  let iter t f =
    for i = 0 to t.x_len - 1 do
      let off = i * entry_bytes in
      let c = data_i64 t.x_data off in
      if c >= 0L then
        f ~rank:(t.x_lo + i) ~cost:(Int64.to_int c)
          ~choice:(data_u8 t.x_data (off + 8))
    done

  let heap_data t =
    match t.x_data with
    | Heap b -> b
    | Map big ->
        let b = Bytes.create (t.x_len * entry_bytes) in
        for i = 0 to Bytes.length b - 1 do
          Bytes.set b i (Bigarray.Array1.get big i)
        done;
        b

  let encode_raw t =
    let data = heap_data t in
    let b = Bytes.create (extent_header_bytes + Bytes.length data) in
    set_extent_header b ~ver:raw_extent_version ~k:t.x_k ~j_set:t.x_j_set
      ~total:t.x_total ~lo:t.x_lo ~len:t.x_len ~present:t.x_present
      ~payload_len:(Bytes.length data);
    Bytes.blit data 0 b extent_header_bytes (Bytes.length data);
    Bytes.unsafe_to_string b

  let encode_packed t =
    let data = heap_data t in
    let stream = compress_slice data ~off:0 ~len:t.x_len ~lo:t.x_lo in
    let b = Bytes.create (extent_header_bytes + String.length stream) in
    set_extent_header b ~ver:packed_version ~k:t.x_k ~j_set:t.x_j_set
      ~total:t.x_total ~lo:t.x_lo ~len:t.x_len ~present:t.x_present
      ~payload_len:(String.length stream);
    Bytes.blit_string stream 0 b extent_header_bytes (String.length stream);
    Bytes.unsafe_to_string b

  let encode t =
    let packed = encode_packed t and raw = encode_raw t in
    if String.length packed < String.length raw then packed else raw

  (* Decode from any accepted payload shape, keeping only the requested
     rank range.  The payload's own range must {e contain} the request —
     an exact extent match and a whole-layer record (the unified
     checkpoint format) are both containment, so one reload path serves
     the spill store and the checkpoint store alike.  A v4 payload
     backed by a mapped [src] keeps the mapping as its backing slice, so
     the OS pages the data instead of the heap holding it. *)
  let of_src src ~j_set ~k ~total ~lo ~len =
    let fail msg = failwith (Printf.sprintf "Layer_pack.Extent.of_src: %s" msg) in
    let m = Varset.cardinal j_set in
    if k < 1 || k > m || total <> binomial m k || lo < 0 || len < 1
       || lo + len > total
    then invalid_arg "Layer_pack.Extent.of_src: bad requested range";
    let slen = src_len src in
    if slen < header_bytes then fail "payload shorter than header";
    let ver = src_u8 src 0 in
    let hk = src_u8 src 1 in
    let hj = Int64.to_int (src_i64 src 2) in
    let hcount = src_u32 src 10 in
    if hk <> k || hj <> j_set then fail "payload belongs to another layer";
    if hcount <> total then fail "entry count does not match layer";
    let fresh () =
      {
        x_j_set = j_set;
        x_k = k;
        x_total = total;
        x_lo = lo;
        x_len = len;
        x_present = 0;
        x_data = Heap (Bytes.make (len * entry_bytes) '\xff');
      }
    in
    let count_present t =
      let n = ref 0 in
      for i = 0 to t.x_len - 1 do
        if data_i64 t.x_data (i * entry_bytes) >= 0L then incr n
      done;
      !n
    in
    if ver = version then begin
      (* whole-layer dense v1: the slice is plain offset arithmetic *)
      if slen <> header_bytes + (total * entry_bytes) then
        fail "truncated layer data";
      let t = fresh () in
      let b =
        match t.x_data with Heap b -> b | Map _ -> assert false
      in
      (match src with
      | S_string s ->
          Bytes.blit_string s
            (header_bytes + (lo * entry_bytes))
            b 0 (len * entry_bytes)
      | S_big big ->
          for i = 0 to Bytes.length b - 1 do
            Bytes.set b i
              (Bigarray.Array1.get big (header_bytes + (lo * entry_bytes) + i))
          done);
      t.x_present <- count_present t;
      t
    end
    else if ver = sparse_version then begin
      if slen < sparse_header_bytes then fail "payload shorter than header";
      let present = src_u32 src 14 in
      if present < 0 || present > total then fail "inconsistent sparse header";
      if slen <> sparse_header_bytes + (present * sparse_entry_bytes) then
        fail "truncated layer data";
      let t = fresh () in
      let b = match t.x_data with Heap b -> b | Map _ -> assert false in
      for i = 0 to present - 1 do
        let off = sparse_header_bytes + (i * sparse_entry_bytes) in
        let r = src_u32 src off in
        if r < 0 || r >= total then fail "entry rank out of range";
        if r >= lo && r < lo + len then begin
          let c = src_i64 src (off + 4) in
          if c < 0L then fail "negative cost in sparse entry";
          let doff = (r - lo) * entry_bytes in
          if Bytes.get_int64_le b doff >= 0L then
            fail "duplicate rank in sparse entries";
          Bytes.set_int64_le b doff c;
          Bytes.set_uint8 b (doff + 8) (src_u8 src (off + 12));
          t.x_present <- t.x_present + 1
        end
      done;
      t
    end
    else if ver = packed_version || ver = raw_extent_version then begin
      if slen < extent_header_bytes then fail "payload shorter than header";
      let hlo = src_u32 src 14 in
      let hlen = src_u32 src 18 in
      let hpresent = src_u32 src 22 in
      let payload_len = src_u32 src 26 in
      if hlo < 0 || hlen < 1 || hlo + hlen > total then fail "bad extent range";
      if hpresent < 0 || hpresent > hlen then fail "inconsistent header";
      if not (hlo <= lo && lo + len <= hlo + hlen) then
        fail "payload does not cover the requested range";
      if slen <> extent_header_bytes + payload_len then fail "truncated extent";
      if ver = raw_extent_version then begin
        if payload_len <> hlen * entry_bytes then fail "payload length mismatch";
        let t =
          if hlo = lo && hlen = len then
            (* exact match: a mapped payload stays mapped (zero copy) *)
            match src with
            | S_big big ->
                {
                  x_j_set = j_set;
                  x_k = k;
                  x_total = total;
                  x_lo = lo;
                  x_len = len;
                  x_present = 0;
                  x_data =
                    Map
                      (Bigarray.Array1.sub big extent_header_bytes payload_len);
                }
            | S_string s ->
                let t = fresh () in
                let b =
                  match t.x_data with Heap b -> b | Map _ -> assert false
                in
                Bytes.blit_string s extent_header_bytes b 0 (len * entry_bytes);
                t
          else begin
            let t = fresh () in
            let b =
              match t.x_data with Heap b -> b | Map _ -> assert false
            in
            let base = extent_header_bytes + ((lo - hlo) * entry_bytes) in
            (match src with
            | S_string s -> Bytes.blit_string s base b 0 (len * entry_bytes)
            | S_big big ->
                for i = 0 to Bytes.length b - 1 do
                  Bytes.set b i (Bigarray.Array1.get big (base + i))
                done);
            t
          end
        in
        t.x_present <- count_present t;
        (if hlo = lo && hlen = len && t.x_present <> hpresent then
           fail "present count does not match data");
        t
      end
      else begin
        let t = fresh () in
        let b = match t.x_data with Heap b -> b | Map _ -> assert false in
        let last_rank, stored =
          decompress_into fail src ~pos:extent_header_bytes ~payload_len
            ~src_lo:hlo ~src_present:hpresent ~dst:b ~want_lo:lo ~want_len:len
        in
        if last_rank >= hlo + hlen then fail "entry rank out of range";
        t.x_present <- stored;
        t
      end
    end
    else fail "unknown version"
end
