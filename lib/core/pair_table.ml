type t = {
  busy : bool Atomic.t;
  mutable slots : int array;
      (* three ints per slot: stamp, key [lo * next_id + hi], pair
         index; a count-only probe writes the first two only *)
  mutable pairs : int array;  (* lo, hi of each pair, by index *)
  mutable stamp : int;
  mutable mask : int;
  mutable shift : int;
  mutable next_id : int;
  mutable width : int;
  mutable zdd : bool;
  mutable bit : int;
}

let create () =
  {
    busy = Atomic.make false;
    slots = [||];
    pairs = [||];
    stamp = 0;
    mask = 0;
    shift = 0;
    next_id = 0;
    width = 0;
    zdd = false;
    bit = 0;
  }

let local = Domain.DLS.new_key create

let claim ~zdd ~bit ~next_id ~cells =
  (* the children are ids below [next_id], so at most [next_id²]
     distinct pairs; [next_id < cells] keeps the square in range *)
  let bound = if next_id >= cells then cells else min cells (next_id * next_id) in
  let bits = ref 1 in
  while 1 lsl !bits < 2 * bound do incr bits done;
  let cap = 1 lsl !bits in
  let own = Domain.DLS.get local in
  let t = if Atomic.exchange own.busy true then create () else own in
  if Array.length t.slots < 3 * cap then t.slots <- Array.make (3 * cap) 0;
  if Array.length t.pairs < 2 * bound then t.pairs <- Array.make (2 * bound) 0;
  t.stamp <- t.stamp + 1;
  t.mask <- cap - 1;
  t.shift <- 63 - !bits;
  t.next_id <- next_id;
  t.width <- 0;
  t.zdd <- zdd;
  t.bit <- bit;
  t

let release t = Atomic.set t.busy false

(* Every scan below pairs cell [b] of the compacted table with the
   source cells whose index has [b]'s bits with a 0 (lo) or a 1 (hi)
   inserted at position [bit].  A pair's key [lo * next_id + hi] is
   unique because both children are below [next_id] (and ids stay far
   below 2^31, so it cannot overflow); the table is at most half full,
   so linear probing ends.  The loops touch only locals, int arrays and
   the arena, so a scan allocates nothing.  An exception releases the
   table before it propagates. *)

(* The count-only probe: record the pair set, no index and no pairs. *)
let count t src =
  let slots = t.slots and stamp = t.stamp in
  let mask = t.mask and shift = t.shift in
  let next_id = t.next_id and zdd = t.zdd and bit = t.bit in
  let low_mask = (1 lsl bit) - 1 in
  let width = ref t.width in
  match
    for b = 0 to (Array.length src / 2) - 1 do
      let idx0 = ((b lsr bit) lsl (bit + 1)) lor (b land low_mask) in
      let lo = src.(idx0) and hi = src.(idx0 lor (1 lsl bit)) in
      if not (if zdd then hi = 0 else lo = hi) then begin
        let key = (lo * next_id) + hi in
        let s = ref ((key * 0x2545F4914F6CDD1D) lsr shift) in
        while slots.(3 * !s) = stamp && slots.((3 * !s) + 1) <> key do
          s := (!s + 1) land mask
        done;
        if slots.(3 * !s) <> stamp then begin
          slots.(3 * !s) <- stamp;
          slots.((3 * !s) + 1) <- key;
          incr width
        end
      end
    done
  with
  | () -> t.width <- !width
  | exception e ->
      release t;
      raise e

(* The build scan of a full state: fill [dst] and record each new
   pair's children for the state's node level. *)
let compact t src =
  let dst = Array.make (Array.length src / 2) 0 in
  let slots = t.slots and pairs = t.pairs and stamp = t.stamp in
  let mask = t.mask and shift = t.shift and next_id = t.next_id in
  let zdd = t.zdd and bit = t.bit in
  let low_mask = (1 lsl bit) - 1 in
  let width = ref t.width in
  match
    for b = 0 to Array.length dst - 1 do
      let idx0 = ((b lsr bit) lsl (bit + 1)) lor (b land low_mask) in
      let lo = src.(idx0) and hi = src.(idx0 lor (1 lsl bit)) in
      if if zdd then hi = 0 else lo = hi then dst.(b) <- lo
      else begin
        let key = (lo * next_id) + hi in
        let s = ref ((key * 0x2545F4914F6CDD1D) lsr shift) in
        while slots.(3 * !s) = stamp && slots.((3 * !s) + 1) <> key do
          s := (!s + 1) land mask
        done;
        let o = 3 * !s in
        if slots.(o) <> stamp then begin
          slots.(o) <- stamp;
          slots.(o + 1) <- key;
          slots.(o + 2) <- !width;
          pairs.(2 * !width) <- lo;
          pairs.((2 * !width) + 1) <- hi;
          incr width
        end;
        dst.(b) <- next_id + slots.(o + 2)
      end
    done
  with
  | () ->
      t.width <- !width;
      dst
  | exception e ->
      release t;
      raise e

(* The slice scans read and write 2- or 4-byte cells in place: the
   accessors are primitives, so the loops still call nothing. *)
let count_slice t (l : Arena.layer) r =
  let slots = t.slots and stamp = t.stamp in
  let mask = t.mask and shift = t.shift in
  let next_id = t.next_id and zdd = t.zdd and bit = t.bit in
  let buf = l.buf and wide = l.wide in
  let low_mask = (1 lsl bit) - 1 and first = r * l.cells in
  let width = ref t.width in
  match
    for b = 0 to (l.cells / 2) - 1 do
      let i0 = first + (((b lsr bit) lsl (bit + 1)) lor (b land low_mask)) in
      let i1 = i0 + (1 lsl bit) in
      let lo, hi =
        if wide then
          ( Int32.to_int (Arena.get32 buf (4 * i0)),
            Int32.to_int (Arena.get32 buf (4 * i1)) )
        else (Arena.get16 buf (2 * i0), Arena.get16 buf (2 * i1))
      in
      if not (if zdd then hi = 0 else lo = hi) then begin
        let key = (lo * next_id) + hi in
        let s = ref ((key * 0x2545F4914F6CDD1D) lsr shift) in
        while slots.(3 * !s) = stamp && slots.((3 * !s) + 1) <> key do
          s := (!s + 1) land mask
        done;
        if slots.(3 * !s) <> stamp then begin
          slots.(3 * !s) <- stamp;
          slots.((3 * !s) + 1) <- key;
          incr width
        end
      end
    done
  with
  | () -> t.width <- !width
  | exception e ->
      release t;
      raise e

(* The sweep's build scan: slice [r] of [src] into slice [dr] of [dst];
   nothing reads the pairs, so none are recorded. *)
let compact_slice t (src : Arena.layer) r (dst : Arena.layer) dr =
  let slots = t.slots and stamp = t.stamp in
  let mask = t.mask and shift = t.shift in
  let next_id = t.next_id and zdd = t.zdd and bit = t.bit in
  let buf = src.buf and wide = src.wide in
  let dbuf = dst.buf and dwide = dst.wide in
  let low_mask = (1 lsl bit) - 1 in
  let first = r * src.cells and dfirst = dr * dst.cells in
  let width = ref t.width in
  match
    for b = 0 to (src.cells / 2) - 1 do
      let i0 = first + (((b lsr bit) lsl (bit + 1)) lor (b land low_mask)) in
      let i1 = i0 + (1 lsl bit) in
      let lo, hi =
        if wide then
          ( Int32.to_int (Arena.get32 buf (4 * i0)),
            Int32.to_int (Arena.get32 buf (4 * i1)) )
        else (Arena.get16 buf (2 * i0), Arena.get16 buf (2 * i1))
      in
      let id =
        if if zdd then hi = 0 else lo = hi then lo
        else begin
          let key = (lo * next_id) + hi in
          let s = ref ((key * 0x2545F4914F6CDD1D) lsr shift) in
          while slots.(3 * !s) = stamp && slots.((3 * !s) + 1) <> key do
            s := (!s + 1) land mask
          done;
          let o = 3 * !s in
          if slots.(o) <> stamp then begin
            slots.(o) <- stamp;
            slots.(o + 1) <- key;
            slots.(o + 2) <- !width;
            incr width
          end;
          next_id + slots.(o + 2)
        end
      in
      if dwide then Arena.set32 dbuf (4 * (dfirst + b)) (Int32.of_int id)
      else Arena.set16 dbuf (2 * (dfirst + b)) id
    done
  with
  | () -> t.width <- !width
  | exception e ->
      release t;
      raise e

let width t = t.width
let pairs t = Array.sub t.pairs 0 (2 * t.width)
