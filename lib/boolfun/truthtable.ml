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

let to_bitvec tt = tt.bits

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

let permute_vars tt perm =
  if Array.length perm <> tt.n then invalid_arg "Truthtable.permute_vars";
  let seen = Array.make tt.n false in
  Array.iter
    (fun j ->
      if j < 0 || j >= tt.n || seen.(j) then
        invalid_arg "Truthtable.permute_vars: not a permutation";
      seen.(j) <- true)
    perm;
  of_fun tt.n (fun code ->
      let old_code = ref 0 in
      for j = 0 to tt.n - 1 do
        if code land (1 lsl j) <> 0 then
          old_code := !old_code lor (1 lsl perm.(j))
      done;
      eval tt !old_code)

(* --- canonical form under variable permutation -------------------- *)

(* Permutation-invariant per-variable fingerprints, refined
   Weisfeiler–Lehman style.  The raw data is collected in one pass over
   the satisfying assignments: [ones] (total satisfying count),
   [c1.(j)] (satisfying count with bit j set) and [c11.(j).(k)]
   (satisfying count with bits j and k both set).  All three transport
   through a variable relabeling, so any ranking computed from them is
   identical for permutation-equivalent functions. *)
let pair_counts tt =
  let n = tt.n in
  let ones = ref 0 in
  let c1 = Array.make n 0 in
  let c11 = Array.make_matrix n n 0 in
  for code = 0 to (1 lsl n) - 1 do
    if eval tt code then begin
      incr ones;
      let rec bits m =
        if m <> 0 then begin
          let j = m land -m in
          let jx = ref 0 in
          let v = ref j in
          while !v > 1 do
            incr jx;
            v := !v lsr 1
          done;
          c1.(!jx) <- c1.(!jx) + 1;
          let rec bits2 m2 =
            if m2 <> 0 then begin
              let k = m2 land -m2 in
              let kx = ref 0 in
              let w = ref k in
              while !w > 1 do
                incr kx;
                w := !w lsr 1
              done;
              c11.(!jx).(!kx) <- c11.(!jx).(!kx) + 1;
              c11.(!kx).(!jx) <- c11.(!kx).(!jx) + 1;
              bits2 (m2 lxor k)
            end
          in
          bits2 (m lxor j);
          bits (m lxor j)
        end
      in
      bits code
    end
  done;
  (!ones, c1, c11)

(* Refine integer ranks until the partition stabilises: a variable's new
   key is its old rank together with the sorted multiset of
   (other's rank, joint satisfying count) pairs.  Ranks are re-assigned
   in sorted-key order, which is itself permutation-invariant. *)
let refine_ranks n c11 ranks0 =
  let ranks = ref ranks0 in
  let classes r = Array.fold_left (fun m x -> max m x) 0 r + 1 in
  let continue = ref true in
  while !continue do
    let key j =
      let others = ref [] in
      for k = 0 to n - 1 do
        if k <> j then others := (!ranks.(k), c11.(j).(k)) :: !others
      done;
      (!ranks.(j), List.sort Stdlib.compare !others)
    in
    let keys = Array.init n key in
    let sorted = List.sort_uniq Stdlib.compare (Array.to_list keys) in
    let next =
      Array.map
        (fun k ->
          let rec index i = function
            | [] -> assert false
            | x :: tl -> if x = k then i else index (i + 1) tl
          in
          index 0 sorted)
        keys
    in
    continue := classes next > classes !ranks;
    ranks := next
  done;
  !ranks

(* Swapping variables [a] and [b] as a [permute_vars] transposition. *)
let swap_fixes tt a b =
  let n = tt.n in
  let p = Array.init n (fun i -> if i = a then b else if i = b then a else i) in
  equal (permute_vars tt p) tt

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
    let _, c1, c11 = pair_counts tt in
    let rank0 =
      let sorted = List.sort_uniq Stdlib.compare (Array.to_list c1) in
      Array.map
        (fun c ->
          let rec index i = function
            | [] -> assert false
            | x :: tl -> if x = c then i else index (i + 1) tl
          in
          index 0 sorted)
        c1
    in
    let ranks = refine_ranks n c11 rank0 in
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
          let cand = permute_vars tt perm in
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

(* 64-bit FNV-1a over the canonical bit string, seeded with the arity. *)
let digest_of_canonical canon =
  let fnv_prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  let feed byte =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (byte land 0xff))) fnv_prime
  in
  feed canon.n;
  let bits = to_bitvec canon in
  let len = Bitvec.length bits in
  let byte = ref 0 in
  for i = 0 to len - 1 do
    if Bitvec.get bits i then byte := !byte lor (1 lsl (i land 7));
    if i land 7 = 7 || i = len - 1 then begin
      feed !byte;
      byte := 0
    end
  done;
  Printf.sprintf "%d:%016Lx" canon.n !h

let digest tt =
  let canon, _ = canonicalize tt in
  digest_of_canonical canon

let random st n =
  check_arity n;
  of_fun n (fun _ -> Random.State.bool st)

let pp ppf tt = Format.fprintf ppf "%d:%s" tt.n (to_string tt)
