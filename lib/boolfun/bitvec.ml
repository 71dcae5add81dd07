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

let copy v = { len = v.len; data = Bytes.copy v.data }

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

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc (get v i)
  done;
  !acc

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (get v i)
  done

let to_string v = String.init v.len (fun i -> if get v i then '1' else '0')

let of_string s =
  init (String.length s) (fun i ->
      match s.[i] with
      | '1' -> true
      | '0' -> false
      | _ -> invalid_arg "Bitvec.of_string")

let pp ppf v = Format.pp_print_string ppf (to_string v)
