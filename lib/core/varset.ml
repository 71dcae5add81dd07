type t = int

let empty = 0
let full n = (1 lsl n) - 1
let mem i s = s land (1 lsl i) <> 0
let add i s = s lor (1 lsl i)
let remove i s = s land lnot (1 lsl i)
let singleton i = 1 lsl i
let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b
let subset a b = a land lnot b = 0
let disjoint a b = a land b = 0

let cardinal s =
  let rec loop s acc = if s = 0 then acc else loop (s lsr 1) (acc + (s land 1)) in
  loop s 0

let is_empty s = s = 0

let iter f s =
  let rec loop s =
    if s <> 0 then begin
      let low = s land -s in
      (* index of the lowest set bit *)
      let rec log2 v acc = if v = 1 then acc else log2 (v lsr 1) (acc + 1) in
      f (log2 low 0);
      loop (s land (s - 1))
    end
  in
  loop s

let fold f s acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) s;
  !acc

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let of_list l = List.fold_left (fun s i -> add i s) empty l

let min_elt s =
  if s = 0 then raise Not_found
  else
    let low = s land -s in
    let rec log2 v acc = if v = 1 then acc else log2 (v lsr 1) (acc + 1) in
    log2 low 0

let rank_in i s = cardinal (s land ((1 lsl i) - 1))

let iter_subsets_of_size ~n ~k f =
  if k < 0 || k > n then invalid_arg "Varset.iter_subsets_of_size";
  if k = 0 then f 0
  else begin
    let limit = 1 lsl n in
    let s = ref ((1 lsl k) - 1) in
    while !s < limit do
      f !s;
      (* Gosper's hack: next integer with the same popcount. *)
      let c = !s land - !s in
      let r = !s + c in
      s := (((r lxor !s) lsr 2) / c) lor r
    done
  end

(* Subsets of an arbitrary set: enumerate subsets of [{0..m-1}] for
   [m = cardinal s] and spread the chosen positions onto [s]'s members. *)
let iter_subsets_of s ~size f =
  let members = Array.of_list (elements s) in
  let m = Array.length members in
  if size < 0 || size > m then invalid_arg "Varset.iter_subsets_of";
  iter_subsets_of_size ~n:m ~k:size (fun packed ->
      let sub = fold (fun pos acc -> add members.(pos) acc) packed empty in
      f sub)

let pp ppf s =
  Format.fprintf ppf "{%s}"
    (String.concat "," (List.map string_of_int (elements s)))
