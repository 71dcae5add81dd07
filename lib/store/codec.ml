exception Corrupt of string

let u8 b v =
  if v < 0 || v > 0xFF then invalid_arg "Codec.u8";
  Buffer.add_char b (Char.chr v)

let u32 b v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec.u32";
  Buffer.add_char b (Char.chr (v land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xFF))

let u64 b v =
  let v64 = Int64.of_int v in
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr
         (Int64.to_int
            (Int64.logand (Int64.shift_right_logical v64 (8 * i)) 0xFFL)))
  done

let str b s =
  u32 b (String.length s);
  Buffer.add_string b s

let int_array b a =
  u32 b (Array.length a);
  Array.iter (u64 b) a

type reader = { src : string; mutable pos : int }

let reader src = { src; pos = 0 }

let need r n what =
  if r.pos + n > String.length r.src then raise (Corrupt what)

let r_u8 r =
  need r 1 "u8";
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_u32 r =
  need r 4 "u32";
  let byte i = Char.code r.src.[r.pos + i] in
  let v = byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24) in
  r.pos <- r.pos + 4;
  v

let r_u64 r =
  need r 8 "u64";
  let v = ref 0L in
  for i = 7 downto 0 do
    v :=
      Int64.logor
        (Int64.shift_left !v 8)
        (Int64.of_int (Char.code r.src.[r.pos + i]))
  done;
  r.pos <- r.pos + 8;
  (* OCaml ints are 63-bit: a stored value outside the native range was
     not written by this codec *)
  if Int64.of_int (Int64.to_int !v) <> !v then raise (Corrupt "u64 range");
  Int64.to_int !v

let r_str r =
  let len = r_u32 r in
  need r len "str";
  let s = String.sub r.src r.pos len in
  r.pos <- r.pos + len;
  s

let r_int_array r =
  let n = r_u32 r in
  (* bound before allocating: a corrupt count must not OOM *)
  if n * 8 > String.length r.src - r.pos then raise (Corrupt "int_array");
  Array.init n (fun _ -> r_u64 r)

let expect_end r =
  if r.pos <> String.length r.src then raise (Corrupt "trailing bytes")
