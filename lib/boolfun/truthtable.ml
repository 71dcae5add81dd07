type t = { n : int; bits : Bitvec.t }

let arity tt = tt.n
let size tt = Bitvec.length tt.bits

let check_arity n =
  if n < 0 || n > Sys.int_size - 2 then invalid_arg "Truthtable: bad arity"

let of_fun n f =
  check_arity n;
  { n; bits = Bitvec.init (1 lsl n) f }

let of_bitvec n v =
  check_arity n;
  if Bitvec.length v <> 1 lsl n then invalid_arg "Truthtable.of_bitvec";
  { n; bits = v }

let log2_exact len =
  let rec loop n = if 1 lsl n >= len then n else loop (n + 1) in
  let n = loop 0 in
  if 1 lsl n <> len then invalid_arg "Truthtable: length not a power of two";
  n

let of_string s =
  let v = Bitvec.of_string s in
  of_bitvec (log2_exact (String.length s)) v

let to_string tt = Bitvec.to_string tt.bits

let const n b = of_fun n (fun _ -> b)
let var n j =
  if j < 0 || j >= n then invalid_arg "Truthtable.var";
  of_fun n (fun code -> code land (1 lsl j) <> 0)

let eval tt code = Bitvec.get tt.bits code

let eval_bits tt a =
  if Array.length a <> tt.n then invalid_arg "Truthtable.eval_bits";
  let code = ref 0 in
  for j = 0 to tt.n - 1 do
    if a.(j) then code := !code lor (1 lsl j)
  done;
  eval tt !code

let equal a b = a.n = b.n && Bitvec.equal a.bits b.bits
let compare a b = Bitvec.compare a.bits b.bits
let hash tt = Bitvec.hash tt.bits

let count_ones tt = Bitvec.popcount tt.bits

let is_const tt =
  if Bitvec.is_zero tt.bits then Some false
  else if Bitvec.is_ones tt.bits then Some true
  else None

(* [insert_bit code j b] widens [code] by inserting bit [b] at position
   [j]: bits below [j] stay, bits at or above [j] shift up. *)
let insert_bit code j b =
  let low = code land ((1 lsl j) - 1) in
  let high = (code lsr j) lsl (j + 1) in
  high lor low lor (if b then 1 lsl j else 0)

let restrict tt j b =
  if j < 0 || j >= tt.n then invalid_arg "Truthtable.restrict";
  of_fun (tt.n - 1) (fun code -> eval tt (insert_bit code j b))

let cofactors tt j = (restrict tt j false, restrict tt j true)

let depends_on tt j =
  let f0, f1 = cofactors tt j in
  not (equal f0 f1)

let support tt =
  List.filter (depends_on tt) (List.init tt.n (fun j -> j))

let not_ tt = { tt with bits = Bitvec.lnot_ tt.bits }

let binop kernel a b =
  if a.n <> b.n then invalid_arg "Truthtable: arity mismatch";
  { n = a.n; bits = kernel a.bits b.bits }

let ( &&& ) = binop Bitvec.and_
let ( ||| ) = binop Bitvec.or_
let xor = binop Bitvec.xor_

let flip tt j =
  if j < 0 || j >= tt.n then invalid_arg "Truthtable.flip";
  { tt with bits = Bitvec.flip_index tt.bits j }

(* [permute_vars] without the permutation check, for the permutations
   [canonicalize] builds itself. *)
let permute tt perm = { tt with bits = Bitvec.permute_index tt.bits perm }

let permute_vars tt perm =
  if Array.length perm <> tt.n then invalid_arg "Truthtable.permute_vars";
  let seen = Array.make tt.n false in
  Array.iter
    (fun j ->
      if j < 0 || j >= tt.n || seen.(j) then
        invalid_arg "Truthtable.permute_vars: not a permutation";
      seen.(j) <- true)
    perm;
  permute tt perm

(* --- canonical form under variable permutation -------------------- *)

(* [dense_ranks n cmp] ranks [0 .. n-1] by [cmp]: the rank of [j] is the
   number of distinct keys below [j]'s.  An insertion sort, since [n] is
   an arity.  Also returns the number of classes. *)
let dense_ranks n cmp =
  let order = Array.init n Fun.id in
  for i = 1 to n - 1 do
    let x = order.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && cmp order.(!j) x > 0 do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- x
  done;
  let ranks = Array.make n 0 and r = ref 0 in
  for i = 1 to n - 1 do
    if cmp order.(i - 1) order.(i) <> 0 then incr r;
    ranks.(order.(i)) <- !r
  done;
  (ranks, !r + 1)

(* A (rank, joint count) pair is the int [rank lsl (n + 1) lor count],
   which orders as the pair does because a count is at most [2^(n-2)].
   Ranks are below [n], so a pair is below [n * 2^(n+1)], which fits an
   OCaml int (below [2^62]) for every [n <= max_key_arity]. *)
let max_key_arity = Sys.int_size - 8

(* Refine integer ranks until the partition stabilises.  Variables are
   fingerprinted by permutation-invariant counts: [c1.(j)] satisfying
   assignments with bit j set, [c11.(j).(k)] with bits j and k both set
   ({!Bitvec.index_counts}).  A variable's new key is its old rank
   followed by the sorted multiset of (other's rank, joint count) pairs;
   ranks are re-assigned in sorted-key order, itself
   permutation-invariant.  Each key starts with the old rank, so a
   partition into singletons maps to itself: refinement stops there. *)
let refine_ranks n c11 (ranks0, classes0) =
  let keys = Array.make (n * n) 0 in
  let cmp a b =
    let rec go i =
      if i = n then 0
      else
        let c = Int.compare keys.((a * n) + i) keys.((b * n) + i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  let rec loop ranks classes =
    if classes = n then ranks
    else begin
      for j = 0 to n - 1 do
        let row = j * n in
        keys.(row) <- ranks.(j);
        let last = ref row in
        for k = 0 to n - 1 do
          if k <> j then begin
            let x = (ranks.(k) lsl (n + 1)) lor c11.(j).(k) in
            let i = ref !last in
            while !i > row && keys.(!i) > x do
              keys.(!i + 1) <- keys.(!i);
              decr i
            done;
            keys.(!i + 1) <- x;
            incr last
          end
        done
      done;
      let next, classes' = dense_ranks n cmp in
      if classes' > classes then loop next classes' else next
    end
  in
  loop ranks0 classes0

(* Swapping variables [a] and [b] as a [permute] transposition. *)
let swap_fixes tt a b =
  let n = tt.n in
  let p = Array.init n (fun i -> if i = a then b else if i = b then a else i) in
  equal (permute tt p) tt

let rec perms_of = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (perms_of (List.filter (( <> ) x) l)))
        l

let canonicalize ?(max_enum = 720) tt =
  let n = tt.n in
  let identity = Array.init n (fun i -> i) in
  if n <= 1 then (tt, identity)
  else begin
    if n > max_key_arity then invalid_arg "Truthtable.canonicalize: arity";
    let c1, c11 = Bitvec.index_counts tt.bits n in
    let ranks =
      refine_ranks n c11 (dense_ranks n (fun a b -> Int.compare c1.(a) c1.(b)))
    in
    (* classes in rank order; members ascending for determinism *)
    let nclasses = Array.fold_left (fun m x -> max m x) 0 ranks + 1 in
    let classes =
      Array.init nclasses (fun r ->
          List.filter (fun j -> ranks.(j) = r) (Array.to_list identity))
    in
    (* a class whose members are pairwise interchangeable (every adjacent
       transposition fixes the table) needs no enumeration: any
       within-class order yields the same table *)
    let is_symmetric = function
      | [] | [ _ ] -> true
      | members ->
          let rec adjacent = function
            | a :: (b :: _ as tl) -> swap_fixes tt a b && adjacent tl
            | _ -> true
          in
          adjacent members
    in
    let fact k =
      let rec go acc i = if i <= 1 then acc else go (acc * i) (i - 1) in
      go 1 k
    in
    let symmetric = Array.map is_symmetric classes in
    let enum_count =
      Array.to_list classes
      |> List.mapi (fun r c -> if symmetric.(r) then 1 else fact (List.length c))
      |> List.fold_left ( * ) 1
    in
    (* candidate within-class orders: all permutations for ambiguous
       classes (bounded by max_enum in total), the deterministic
       ascending order otherwise.  Beyond the budget the digest is still
       deterministic, just no longer guaranteed permutation-invariant —
       a cache keyed on it only loses hits, never correctness. *)
    let choices =
      Array.mapi
        (fun r members ->
          if symmetric.(r) || List.length members <= 1 || enum_count > max_enum
          then [ members ]
          else perms_of members)
        classes
    in
    let best = ref None in
    let rec product acc = function
      | [] ->
          let perm = Array.of_list (List.concat (List.rev acc)) in
          let cand = permute tt perm in
          let better =
            match !best with
            | None -> true
            | Some (bt, bp) ->
                let c = compare cand bt in
                c < 0 || (c = 0 && Stdlib.compare perm bp < 0)
          in
          if better then best := Some (cand, perm)
      | cls :: rest -> List.iter (fun order -> product (order :: acc) rest) cls
    in
    product [] (Array.to_list choices);
    match !best with Some (t, p) -> (t, p) | None -> assert false
  end

(* 64-bit FNV-1a over the arity, then over the packed bytes of the
   table.  [Bitvec] keeps the bits past the length zero, so for n <= 2
   the one partial byte is fed as it stands. *)
let digest_of_canonical canon =
  let fnv_prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to (size canon + 7) lsr 3 do
    let b = if i = 0 then canon.n else Bitvec.byte canon.bits (i - 1) in
    h := Int64.mul (Int64.logxor !h (Int64.of_int (b land 0xff))) fnv_prime
  done;
  Printf.sprintf "%d:%016Lx" canon.n !h

let digest tt =
  let canon, _ = canonicalize tt in
  digest_of_canonical canon

let random st n =
  check_arity n;
  of_fun n (fun _ -> Random.State.bool st)

let pp ppf tt = Format.fprintf ppf "%d:%s" tt.n (to_string tt)
