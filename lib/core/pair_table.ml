type t = {
  busy : bool Atomic.t;
  mutable slots : int array;
      (* three ints per slot: stamp, key [lo * next_id + hi], pair index *)
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

(* One scan: record the unelided pairs of [src] and, when [dst] is not
   empty, fill it with the compacted table.  Cell [b] of the compacted
   table pairs the source cells whose index has [b]'s bits with a 0 (lo)
   or a 1 (hi) inserted at position [bit].  A pair's key
   [lo * next_id + hi] is unique because both children are below
   [next_id] (and ids stay far below 2^31, so it cannot overflow); the
   table is at most half full, so linear probing ends.
   The loop touches only locals and int arrays, so a scan allocates
   nothing. *)
let scan t src dst =
  let slots = t.slots and pairs = t.pairs and stamp = t.stamp in
  let mask = t.mask and shift = t.shift and next_id = t.next_id in
  let zdd = t.zdd and bit = t.bit in
  let build = Array.length dst > 0 in
  let low_mask = (1 lsl bit) - 1 in
  let width = ref t.width in
  match
    for b = 0 to (Array.length src / 2) - 1 do
      let idx0 = ((b lsr bit) lsl (bit + 1)) lor (b land low_mask) in
      let lo = src.(idx0) in
      let hi = src.(idx0 lor (1 lsl bit)) in
      if if zdd then hi = 0 else lo = hi then (if build then dst.(b) <- lo)
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
        if build then dst.(b) <- next_id + slots.(o + 2)
      end
    done
  with
  | () -> t.width <- !width
  | exception e ->
      release t;
      raise e

let count t src = scan t src [||]

let compact t src =
  let dst = Array.make (Array.length src / 2) 0 in
  scan t src dst;
  dst

let width t = t.width
let pairs t = Array.sub t.pairs 0 (2 * t.width)
