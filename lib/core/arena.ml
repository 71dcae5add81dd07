type buf =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type layer = { buf : buf; wide : bool; cells : int }

external get16 : buf -> int -> int = "%caml_bigstring_get16"
external set16 : buf -> int -> int -> unit = "%caml_bigstring_set16"
external get32 : buf -> int -> int32 = "%caml_bigstring_get32"
external set32 : buf -> int -> int32 -> unit = "%caml_bigstring_set32"

let narrow_ids = 65536

let blit ids l ~pos =
  if l.wide then
    for i = 0 to Array.length ids - 1 do
      set32 l.buf (4 * (pos + i)) (Int32.of_int ids.(i))
    done
  else
    for i = 0 to Array.length ids - 1 do
      set16 l.buf (2 * (pos + i)) ids.(i)
    done

type t = { busy : bool Atomic.t; bufs : buf array }

let sat_mul a b = if a <> 0 && b > max_int / a then max_int else a * b

(* the largest layer of each parity, in bytes of 2-byte cells *)
let capacities ~cells ~m ~upto =
  let caps = [| 0; 0 |] in
  for k = 0 to upto - 1 do
    let b = sat_mul 2 (sat_mul (Layer_pack.binomial m k) (cells lsr k)) in
    caps.(k land 1) <- max caps.(k land 1) b
  done;
  caps

let bytes ~cells ~m ~upto =
  let caps = capacities ~cells ~m ~upto in
  if caps.(0) > max_int - caps.(1) then max_int else caps.(0) + caps.(1)

let alloc n = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n
let create () = { busy = Atomic.make false; bufs = [| alloc 0; alloc 0 |] }
let local = Domain.DLS.new_key create

let claim ~cells ~m ~upto =
  let own = Domain.DLS.get local in
  let t = if Atomic.exchange own.busy true then create () else own in
  Array.iteri
    (fun p cap ->
      if Bigarray.Array1.dim t.bufs.(p) < cap then t.bufs.(p) <- alloc cap)
    (capacities ~cells ~m ~upto);
  t

let release t = Atomic.set t.busy false

let layer t ~k ~wide ~cells ~slices =
  let p = k land 1 and need = slices * cells * if wide then 4 else 2 in
  if Bigarray.Array1.dim t.bufs.(p) < need then t.bufs.(p) <- alloc need;
  { buf = t.bufs.(p); wide; cells }
