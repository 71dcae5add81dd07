type t = { len : int; data : Bytes.t }

let nbytes len = (len + 7) lsr 3

let create len =
  if len < 0 then invalid_arg "Bitvec.create";
  { len; data = Bytes.make (nbytes len) '\000' }

let length v = v.len

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Bitvec: index out of range"

let get v i =
  check v i;
  Char.code (Bytes.unsafe_get v.data (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set v i b =
  check v i;
  let byte = i lsr 3 in
  let mask = 1 lsl (i land 7) in
  let cur = Char.code (Bytes.unsafe_get v.data byte) in
  let next = if b then cur lor mask else cur land lnot mask in
  Bytes.unsafe_set v.data byte (Char.chr (next land 0xff))

let init len f =
  let v = create len in
  for i = 0 to len - 1 do
    if f i then set v i true
  done;
  v

(* The last byte may contain unused bits; they are kept at zero by [set],
   so byte-level comparison and hashing are sound. *)
let equal a b = a.len = b.len && Bytes.equal a.data b.data

let compare a b =
  let c = Stdlib.compare a.len b.len in
  if c <> 0 then c else Bytes.compare a.data b.data

let hash v = Hashtbl.hash (v.len, v.data)

let popcount_byte =
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  fun c -> table.(Char.code c)

let popcount v =
  let acc = ref 0 in
  for i = 0 to Bytes.length v.data - 1 do
    acc := !acc + popcount_byte (Bytes.get v.data i)
  done;
  !acc

let is_zero v =
  let rec loop i =
    i >= Bytes.length v.data || (Bytes.get v.data i = '\000' && loop (i + 1))
  in
  loop 0

let is_ones v = popcount v = v.len

(* Word-parallel bitwise kernels.  The length invariant (trailing bits
   of the last byte are zero) is preserved by and/or/xor since both
   inputs satisfy it; complement must re-mask the tail. *)
let word_op2 op a b =
  if a.len <> b.len then invalid_arg "Bitvec: length mismatch";
  let nb = Bytes.length a.data in
  let out = Bytes.create nb in
  let full_words = nb / 8 in
  for w = 0 to full_words - 1 do
    let x = Bytes.get_int64_ne a.data (w * 8)
    and y = Bytes.get_int64_ne b.data (w * 8) in
    Bytes.set_int64_ne out (w * 8) (op x y)
  done;
  for i = full_words * 8 to nb - 1 do
    let x = Int64.of_int (Char.code (Bytes.get a.data i))
    and y = Int64.of_int (Char.code (Bytes.get b.data i)) in
    Bytes.set out i (Char.chr (Int64.to_int (op x y) land 0xff))
  done;
  { len = a.len; data = out }

let and_ a b = word_op2 Int64.logand a b
let or_ a b = word_op2 Int64.logor a b
let xor_ a b = word_op2 Int64.logxor a b

(* Bit [i] of the result is bit [i lxor 2^k]: adjacent blocks of [2^k]
   bits trade places.  Whole-byte blocks move by [blit]; below a byte,
   a mask and a shift swap them.  Both keep the zero tail, since a
   length that is a multiple of [2^(k+1)] pairs tail bits only with
   tail bits. *)
let flip_index v k =
  if k < 0 || k > 60 || v.len land ((2 lsl k) - 1) <> 0 then
    invalid_arg "Bitvec.flip_index";
  let nb = Bytes.length v.data in
  let out = Bytes.create nb in
  if k >= 3 then begin
    let block = 1 lsl (k - 3) in
    let base = ref 0 in
    while !base < nb do
      Bytes.blit v.data !base out (!base + block) block;
      Bytes.blit v.data (!base + block) out !base block;
      base := !base + (2 * block)
    done
  end
  else begin
    let s = 1 lsl k and m = [| 0x55; 0x33; 0x0f |].(k) in
    for i = 0 to nb - 1 do
      let b = Char.code (Bytes.get v.data i) in
      Bytes.set out i (Char.chr (((b lsr s) land m) lor ((b land m) lsl s)))
    done
  end;
  { len = v.len; data = out }

let map2 f a b =
  if a.len <> b.len then invalid_arg "Bitvec.map2";
  init a.len (fun i -> f (get a i) (get b i))

let lnot_ v =
  let nb = Bytes.length v.data in
  let out = Bytes.create nb in
  for i = 0 to nb - 1 do
    Bytes.set out i (Char.chr (lnot (Char.code (Bytes.get v.data i)) land 0xff))
  done;
  (* clear the unused high bits of the last byte to keep the invariant *)
  let rem = v.len land 7 in
  if rem > 0 && nb > 0 then begin
    let mask = (1 lsl rem) - 1 in
    Bytes.set out (nb - 1) (Char.chr (Char.code (Bytes.get out (nb - 1)) land mask))
  end;
  { len = v.len; data = out }

let byte v i = Char.code (Bytes.get v.data i)

(* --- word kernels over [2^n]-bit vectors indexed by [n]-bit codes --- *)

(* Branch-free 32-bit popcount (SWAR); the product cannot overflow a
   63-bit int. *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x5555_5555) in
  let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f in
  ((x * 0x0101_0101) lsr 24) land 0xff

(* Bits [32c .. 32c + 31]; a vector shorter than a word is one
   zero-padded word. *)
let word32 v c =
  if Bytes.length v.data >= 4 then
    Int32.to_int (Bytes.get_int32_le v.data (4 * c)) land 0xffff_ffff
  else begin
    let w = ref 0 in
    for i = 0 to Bytes.length v.data - 1 do
      w := !w lor (Char.code (Bytes.get v.data i) lsl (8 * i))
    done;
    !w
  end

(* Within a word, index bit [j < 5] is set exactly at the positions of
   [index_masks.(j)]; index bits 5 and up are the bits of the word's
   number. *)
let index_masks =
  [| 0xaaaa_aaaa; 0xcccc_cccc; 0xf0f0_f0f0; 0xff00_ff00; 0xffff_0000 |]

let index_counts v n =
  if n < 0 || n > Sys.int_size - 2 || v.len <> 1 lsl n then
    invalid_arg "Bitvec.index_counts";
  let c1 = Array.make n 0 and c11 = Array.make_matrix n n 0 in
  let low = min n 5 in
  let under = Array.make 5 0 in
  for c = 0 to max 1 (v.len lsr 5) - 1 do
    let w = word32 v c in
    let total = popcount32 w in
    for j = 0 to low - 1 do
      let wj = w land index_masks.(j) in
      under.(j) <- popcount32 wj;
      c1.(j) <- c1.(j) + under.(j);
      let row = c11.(j) in
      for k = j + 1 to low - 1 do
        row.(k) <- row.(k) + popcount32 (wj land index_masks.(k))
      done
    done;
    for t = 5 to n - 1 do
      let s = (c lsr (t - 5)) land 1 in
      c1.(t) <- c1.(t) + (s * total);
      for j = 0 to low - 1 do
        c11.(j).(t) <- c11.(j).(t) + (s * under.(j))
      done;
      let row = c11.(t) in
      for u = t + 1 to n - 1 do
        row.(u) <- row.(u) + ((s land (c lsr (u - 5))) * total)
      done
    done
  done;
  for j = 0 to n - 1 do
    for k = j + 1 to n - 1 do
      c11.(k).(j) <- c11.(j).(k)
    done
  done;
  (c1, c11)

(* [spread perm ~from ~bits] maps each value [m] of the index bits
   [from .. from + bits - 1] to where [perm] sends them: bit [t] of [m]
   lands on bit [perm.(from + t)]. *)
let spread perm ~from ~bits =
  let tbl = Array.make (1 lsl bits) 0 in
  for t = 0 to bits - 1 do
    let b = 1 lsl perm.(from + t) and half = 1 lsl t in
    for m = half to (2 * half) - 1 do
      tbl.(m) <- tbl.(m - half) lor b
    done
  done;
  tbl

let bit_at data s =
  (Char.code (Bytes.unsafe_get data (s lsr 3)) lsr (s land 7)) land 1

(* The source index of output bit [8b + k] is [lo.(k) lor hi.(b)]: one
   table over the low 3 index bits, one over the rest.  Each output byte
   is gathered with shifts and masks, with no branch on a bit.  The
   range check keeps every source index below [2^n], so the unchecked
   reads stay in bounds even when [perm] repeats an entry. *)
let permute_index v perm =
  let n = Array.length perm in
  if n > Sys.int_size - 2 || v.len <> 1 lsl n then
    invalid_arg "Bitvec.permute_index";
  Array.iter
    (fun p -> if p < 0 || p >= n then invalid_arg "Bitvec.permute_index")
    perm;
  let low = min n 3 in
  let lo = spread perm ~from:0 ~bits:low in
  let hi = spread perm ~from:low ~bits:(n - low) in
  let src = v.data in
  let out = Bytes.create (nbytes v.len) in
  if n >= 3 then begin
    let l1 = lo.(1) and l2 = lo.(2) and l3 = lo.(3) and l4 = lo.(4)
    and l5 = lo.(5) and l6 = lo.(6) and l7 = lo.(7) in
    for b = 0 to Bytes.length out - 1 do
      let h = hi.(b) in
      let byte =
        bit_at src h
        lor (bit_at src (l1 lor h) lsl 1)
        lor (bit_at src (l2 lor h) lsl 2)
        lor (bit_at src (l3 lor h) lsl 3)
        lor (bit_at src (l4 lor h) lsl 4)
        lor (bit_at src (l5 lor h) lsl 5)
        lor (bit_at src (l6 lor h) lsl 6)
        lor (bit_at src (l7 lor h) lsl 7)
      in
      Bytes.unsafe_set out b (Char.unsafe_chr byte)
    done
  end
  else begin
    let byte = ref 0 in
    for k = 0 to v.len - 1 do
      byte := !byte lor (bit_at src lo.(k) lsl k)
    done;
    Bytes.unsafe_set out 0 (Char.unsafe_chr !byte)
  end;
  { len = v.len; data = out }

let to_string v = String.init v.len (fun i -> if get v i then '1' else '0')

(* Each character adds [code - 48] to its byte and is ORed into [bad]:
   a string of '0' and '1' leaves [bad] at 0 or 1, any other byte sets
   a higher bit or the sign, so one test at the end replaces a branch
   per character. *)
let of_string s =
  let len = String.length s in
  let data = Bytes.create (nbytes len) in
  let bad = ref 0 in
  for b = 0 to Bytes.length data - 1 do
    let base = 8 * b in
    let stop = if len - base < 8 then len else base + 8 in
    let byte = ref 0 in
    for i = base to stop - 1 do
      let d = Char.code (String.unsafe_get s i) - 48 in
      byte := !byte lor (d lsl (i - base));
      bad := !bad lor d
    done;
    Bytes.unsafe_set data b (Char.unsafe_chr (!byte land 0xff))
  done;
  if !bad land lnot 1 <> 0 then invalid_arg "Bitvec.of_string";
  { len; data }

let pp ppf v = Format.pp_print_string ppf (to_string v)
