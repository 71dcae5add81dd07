(* Reference canonical form: [permute_vars], [canonicalize] and
   [digest_of_canonical] computed bit by bit over the public [Truthtable]
   interface.  The canonical table, its permutation and the digest are a
   persistent format ([Result_store] keys answers by digest and re-hashes
   them on open), so the library's word kernels must agree with this
   reference byte for byte. *)

module T = Ovo_boolfun.Truthtable

let permute_vars tt perm =
  let n = T.arity tt in
  T.of_fun n (fun code ->
      let old_code = ref 0 in
      for j = 0 to n - 1 do
        if code land (1 lsl j) <> 0 then
          old_code := !old_code lor (1 lsl perm.(j))
      done;
      T.eval tt !old_code)

(* [c1.(j)]: satisfying assignments with bit j set; [c11.(j).(k)]: with
   bits j and k both set, walking the set bits of every satisfying code. *)
let pair_counts tt =
  let n = T.arity tt in
  let c1 = Array.make n 0 in
  let c11 = Array.make_matrix n n 0 in
  for code = 0 to (1 lsl n) - 1 do
    if T.eval tt code then
      for j = 0 to n - 1 do
        if code land (1 lsl j) <> 0 then begin
          c1.(j) <- c1.(j) + 1;
          for k = 0 to n - 1 do
            if k <> j && code land (1 lsl k) <> 0 then
              c11.(j).(k) <- c11.(j).(k) + 1
          done
        end
      done
  done;
  (c1, c11)

let index_in sorted x =
  let rec go i = function
    | [] -> assert false
    | y :: tl -> if y = x then i else go (i + 1) tl
  in
  go 0 sorted

let refine_ranks n c11 ranks0 =
  let ranks = ref ranks0 in
  let classes r = Array.fold_left max 0 r + 1 in
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
    let next = Array.map (index_in sorted) keys in
    continue := classes next > classes !ranks;
    ranks := next
  done;
  !ranks

let swap_fixes tt a b =
  let n = T.arity tt in
  let p = Array.init n (fun i -> if i = a then b else if i = b then a else i) in
  T.equal (permute_vars tt p) tt

let rec perms_of = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map (fun p -> x :: p) (perms_of (List.filter (( <> ) x) l)))
        l

let canonicalize ?(max_enum = 720) tt =
  let n = T.arity tt in
  let identity = Array.init n (fun i -> i) in
  if n <= 1 then (tt, identity)
  else begin
    let c1, c11 = pair_counts tt in
    let rank0 =
      Array.map (index_in (List.sort_uniq Stdlib.compare (Array.to_list c1))) c1
    in
    let ranks = refine_ranks n c11 rank0 in
    let nclasses = Array.fold_left max 0 ranks + 1 in
    let classes =
      Array.init nclasses (fun r ->
          List.filter (fun j -> ranks.(j) = r) (Array.to_list identity))
    in
    let is_symmetric = function
      | [] | [ _ ] -> true
      | members ->
          let rec adjacent = function
            | a :: (b :: _ as tl) -> swap_fixes tt a b && adjacent tl
            | _ -> true
          in
          adjacent members
    in
    let rec fact k = if k <= 1 then 1 else k * fact (k - 1) in
    let symmetric = Array.map is_symmetric classes in
    let enum_count =
      Array.to_list classes
      |> List.mapi (fun r c ->
             if symmetric.(r) then 1 else fact (List.length c))
      |> List.fold_left ( * ) 1
    in
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
                let c = T.compare cand bt in
                c < 0 || (c = 0 && Stdlib.compare perm bp < 0)
          in
          if better then best := Some (cand, perm)
      | cls :: rest -> List.iter (fun order -> product (order :: acc) rest) cls
    in
    product [] (Array.to_list choices);
    match !best with Some (t, p) -> (t, p) | None -> assert false
  end

(* 64-bit FNV-1a, seeded with the arity, over the table packed eight
   entries per byte, entry 8i + b at bit b of byte i. *)
let digest_of_canonical canon =
  let fnv_prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  let feed byte =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (byte land 0xff))) fnv_prime
  in
  feed (T.arity canon);
  let len = T.size canon in
  let byte = ref 0 in
  for i = 0 to len - 1 do
    if T.eval canon i then byte := !byte lor (1 lsl (i land 7));
    if i land 7 = 7 || i = len - 1 then begin
      feed !byte;
      byte := 0
    end
  done;
  Printf.sprintf "%d:%016Lx" (T.arity canon) !h
