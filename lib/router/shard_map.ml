type shard = { name : string; addr : Ovo_serve.Protocol.addr }

(* FNV-1a over the bytes, folded into OCaml's 63-bit int (the offset
   basis keeps only the low 62 bits of the canonical 64-bit constant —
   any fixed basis works).  Speed does not matter here (one hash per
   shard per request); what matters is that the function is
   deterministic across processes — routing has to be a pure function
   of [(key, shard set)], never of process state — so no
   [Hashtbl.hash], whose output is version-dependent, and no seeds. *)
(* Splitmix-style finalizer.  Raw FNV-1a under-mixes the top bits when
   two inputs differ only in a short suffix (shard names do), and
   rendezvous, which ranks by magnitude, is maximally sensitive to the
   top bits, which measurably skews placement (~half the keys moved on
   a shard add instead of ~1/N before this pass).  The multiplier
   constants are arbitrary odd numbers that fit OCaml's int; the shift
   amounts are splitmix64's. *)
let mix (h : int) : int =
  let h = h lxor (h lsr 30) in
  let h = h * 0x2f58476d1ce4e5b9 in
  let h = h lxor (h lsr 27) in
  let h = h * 0x14b9552b4be02d63 in
  let h = h lxor (h lsr 31) in
  h land max_int

(* The placement hash: FNV-1a 64, masked non-negative. *)
let fnv1a (s : string) : int =
  let h = ref 0xbf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  mix !h

type t = shard array  (* sorted by name: layout-independent *)

let shards t = Array.to_list t

let make shards =
  (match shards with
  | [] -> invalid_arg "Shard_map.make: no shards"
  | _ -> ());
  let names = List.map (fun s -> s.name) shards in
  let sorted_names = List.sort_uniq compare names in
  if List.length sorted_names <> List.length names then
    invalid_arg "Shard_map.make: duplicate shard name";
  Array.of_list (List.sort (fun a b -> compare a.name b.name) shards)

(* Rendezvous (highest-random-weight): every shard scores
   hash(key, shard); ranking by score gives each key its own
   independent preference list.  Adding a shard can only insert it
   somewhere in a key's list (other shards keep their relative order),
   which is exactly the minimal-disruption property the qcheck suite
   pins down. *)
let owners ?(replicas = 1) t ~live key =
  shards t
  |> List.filter (fun s -> live s.name)
  |> List.map (fun s -> (fnv1a (key ^ "\x00" ^ s.name), s))
  |> List.sort (fun (ha, a) (hb, b) ->
         match compare hb ha with 0 -> compare a.name b.name | c -> c)
  |> List.filteri (fun i _ -> i < max 1 replicas)
  |> List.map snd

let owner t ~live key =
  match owners ~replicas:1 t ~live key with
  | s :: _ -> Some s
  | [] -> None
