let arena_bytes ~n = Arena.bytes ~cells:(1 lsl n) ~m:n ~upto:n

let table_bytes ~n =
  let sum = ref 0 in
  for k = 1 to n do
    sum :=
      !sum + Layer_pack.extent_header_bytes
      + (Layer_pack.entry_bytes * Layer_pack.binomial n k)
  done;
  !sum

let estimate ~n =
  let a = arena_bytes ~n and t = table_bytes ~n in
  if a > max_int - t then max_int else a + t

let pp_bytes b =
  if b >= 1 lsl 30 then
    Printf.sprintf "%.1f GiB" (float_of_int b /. 1073741824.)
  else if b >= 1 lsl 20 then
    Printf.sprintf "%.1f MiB" (float_of_int b /. 1048576.)
  else Printf.sprintf "%d B" b

let refusal ~n ~limit cap =
  let need = estimate ~n in
  if need <= cap then None
  else
    Some
      (Printf.sprintf
         "an exact solve over %d variables needs %s for the DP's two layer \
          buffers and its cost/choice table, more than %s"
         n (pp_bytes need) limit)

type t = {
  budget_bytes : int option;
  mutable resident_bytes : int;
  mutable peak_resident_bytes : int;
  mutable peak_layer_bytes : int;
}

let create ?budget_bytes () =
  (match budget_bytes with
  | Some b when b <= 0 -> invalid_arg "Membudget.create: budget must be > 0"
  | _ -> ());
  {
    budget_bytes;
    resident_bytes = 0;
    peak_resident_bytes = 0;
    peak_layer_bytes = 0;
  }

let unbounded () = create ()
let peak_resident_bytes t = t.peak_resident_bytes
let peak_layer_bytes t = t.peak_layer_bytes

let grew t bytes =
  t.resident_bytes <- t.resident_bytes + bytes;
  if t.resident_bytes > t.peak_resident_bytes then
    t.peak_resident_bytes <- t.resident_bytes

let shrank t bytes = t.resident_bytes <- max 0 (t.resident_bytes - bytes)

let note_layer_bytes t bytes =
  if bytes > t.peak_layer_bytes then t.peak_layer_bytes <- bytes

(* Accepts "4096", "64k", "16M", "2G" (binary multiples).  Kept liberal
   on case, strict on everything else, so a typo fails loudly instead of
   silently meaning bytes, and a multiple past [max_int] fails instead of
   wrapping. *)
let parse_bytes s =
  let s = String.trim s in
  let len = String.length s in
  if len = 0 then Error "empty size"
  else
    let unit_of c =
      match Char.lowercase_ascii c with
      | 'k' -> Some 1024
      | 'm' -> Some (1024 * 1024)
      | 'g' -> Some (1024 * 1024 * 1024)
      | _ -> None
    in
    let digits, mult =
      match unit_of s.[len - 1] with
      | Some m -> (String.sub s 0 (len - 1), m)
      | None -> (s, 1)
    in
    match int_of_string_opt digits with
    | None -> Error (Printf.sprintf "bad size %S (want BYTES[k|M|G])" s)
    | Some n when n <= 0 -> Error "size must be > 0"
    | Some n when n > max_int / mult ->
        Error (Printf.sprintf "size %S exceeds %d bytes" s max_int)
    | Some n -> Ok (n * mult)

let to_json_value t =
  Ovo_obs.Json.(
    Obj
      [
        ( "budget_bytes",
          match t.budget_bytes with Some b -> Int b | None -> Null );
        ("peak_resident_bytes", Int t.peak_resident_bytes);
        ("peak_layer_bytes", Int t.peak_layer_bytes);
      ])

let pp ppf t =
  Format.fprintf ppf "budget=%s peak_resident=%d peak_layer=%d"
    (match t.budget_bytes with Some b -> string_of_int b | None -> "none")
    t.peak_resident_bytes t.peak_layer_bytes
