let pow2f k = Float.pow 2. (float_of_int k)

(* 2^(2^e), saturating to infinity well before float overflow hurts *)
let pow2_pow2 e = if e > 9 then Float.infinity else Float.pow 2. (pow2f e)

let max_width ~n ~level =
  if level < 1 || level > n then invalid_arg "Bounds.max_width";
  let restrictions = pow2f (n - level) in
  let half = pow2_pow2 (level - 1) in
  (* functions of [level] vars whose two top cofactors differ *)
  let dependents = half *. (half -. 1.) in
  Float.min restrictions dependents

let max_nodes n =
  let acc = ref 0. in
  for level = 1 to n do
    acc := !acc +. max_width ~n ~level
  done;
  !acc

let max_size n = max_nodes n +. 2.

let check_widths ~n widths =
  Array.length widths = n
  && Array.for_all (fun w -> w >= 0) widths
  &&
  let ok = ref true in
  Array.iteri
    (fun i w ->
      if float_of_int w > max_width ~n ~level:(i + 1) then ok := false)
    widths;
  !ok
