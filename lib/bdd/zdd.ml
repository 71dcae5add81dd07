(* A manager is a node store (see node_store.mli) plus the operation
   cache; the ZDD rule elides a node whose hi child is the empty family.
   Leaf ids 0 and 1 are the empty family and {∅}.  Ordering is by LEVEL:
   the root carries the element whose level is smallest, and a node's
   children live at strictly larger levels (leaves at level [n]).  With
   the default identity order, level = element label. *)

module S = Node_store

type man = {
  s : S.t;
  cache : (int * int * int, int) Hashtbl.t;  (* (op_tag, a, b) *)
}

type t = int

let op_union = 0
let op_inter = 1
let op_diff = 2
let op_join = 3
let op_meet = 4
let op_nonsub = 5
let op_nonsup = 6
let op_maximal = 7
let op_minimal = 8

let create ?order n =
  { s = S.create "Zdd" ?order n; cache = Hashtbl.create 256 }

let order man = Array.copy man.s.level_var
let node_count man = S.node_count man.s

let empty _man = 0
let base _man = 1
let equal (a : t) (b : t) = a = b

let level man u = S.level man.s u
let lo man u = S.lo man.s u
let hi man u = S.hi man.s u
let elem man u = man.s.level_var.(level man u)

let mk man lvl l h = if h = 0 then l else S.node man.s lvl l h

let cached man tag a b compute =
  let key = (tag, a, b) in
  match Hashtbl.find_opt man.cache key with
  | Some r -> r
  | None ->
      let r = compute () in
      Hashtbl.add man.cache key r;
      r

let rec union man a b =
  if a = b then a
  else if a = 0 then b
  else if b = 0 then a
  else
    let a, b = if a < b then (a, b) else (b, a) in
    cached man op_union a b (fun () ->
        let la = level man a and lb = level man b in
        if la < lb then mk man la (union man (lo man a) b) (hi man a)
        else if lb < la then mk man lb (union man a (lo man b)) (hi man b)
        else
          mk man la
            (union man (lo man a) (lo man b))
            (union man (hi man a) (hi man b)))

let rec inter man a b =
  if a = b then a
  else if a = 0 || b = 0 then 0
  else
    let a, b = if a < b then (a, b) else (b, a) in
    cached man op_inter a b (fun () ->
        let la = level man a and lb = level man b in
        if la < lb then inter man (lo man a) b
        else if lb < la then inter man a (lo man b)
        else
          mk man la
            (inter man (lo man a) (lo man b))
            (inter man (hi man a) (hi man b)))

let rec diff man a b =
  if a = b || a = 0 then 0
  else if b = 0 then a
  else
    cached man op_diff a b (fun () ->
        let la = level man a and lb = level man b in
        if la < lb then mk man la (diff man (lo man a) b) (hi man a)
        else if lb < la then diff man a (lo man b)
        else
          mk man la
            (diff man (lo man a) (lo man b))
            (diff man (hi man a) (hi man b)))

let rec join man a b =
  if a = 0 || b = 0 then 0
  else if a = 1 then b
  else if b = 1 then a
  else
    let a, b = if a < b then (a, b) else (b, a) in
    cached man op_join a b (fun () ->
        let la = level man a and lb = level man b in
        if la < lb then
          mk man la (join man (lo man a) b) (join man (hi man a) b)
        else if lb < la then
          mk man lb (join man a (lo man b)) (join man a (hi man b))
        else
          let hh = join man (hi man a) (hi man b) in
          let hl = join man (hi man a) (lo man b) in
          let lh = join man (lo man a) (hi man b) in
          mk man la
            (join man (lo man a) (lo man b))
            (union man hh (union man hl lh)))

(* {x ∩ y}: the dual of join. *)
let rec meet man a b =
  if a = 0 || b = 0 then 0
  else if a = 1 || b = 1 then 1
  else
    let a, b = if a < b then (a, b) else (b, a) in
    cached man op_meet a b (fun () ->
        let la = level man a and lb = level man b in
        if la < lb then union man (meet man (lo man a) b) (meet man (hi man a) b)
        else if lb < la then
          union man (meet man a (lo man b)) (meet man a (hi man b))
        else
          let keep_v = meet man (hi man a) (hi man b) in
          let drop =
            union man
              (meet man (lo man a) (lo man b))
              (union man
                 (meet man (hi man a) (lo man b))
                 (meet man (lo man a) (hi man b)))
          in
          mk man la drop keep_v)

(* sets of [a] that are a subset of no member of [b] *)
let rec nonsub man a b =
  if a = 0 then 0
  else if b = 0 then a
  else if a = b then 0
  else if a = 1 then 0 (* ∅ ⊆ any member; b ≠ 0 has one *)
  else if b = 1 then (* only ∅ can be ⊆ ∅ *)
    diff man a 1
  else
    cached man op_nonsub a b (fun () ->
        let la = level man a and lb = level man b in
        if la < lb then
          (* members with the top element can't fit inside v-free sets *)
          mk man la (nonsub man (lo man a) b) (hi man a)
        else if lb < la then nonsub man a (union man (lo man b) (hi man b))
        else
          mk man la
            (nonsub man (lo man a) (union man (lo man b) (hi man b)))
            (nonsub man (hi man a) (hi man b)))

let rec contains_empty man t = if t < 2 then t = 1 else contains_empty man (lo man t)

(* sets of [a] that are a superset of no member of [b] *)
let rec nonsup man a b =
  if a = 0 then 0
  else if b = 0 then a
  else if a = b then 0
  else if b = 1 then 0 (* every set ⊇ ∅ *)
  else if a = 1 then if contains_empty man b then 0 else 1
  else
    cached man op_nonsup a b (fun () ->
        let la = level man a and lb = level man b in
        if la < lb then
          mk man la (nonsup man (lo man a) b) (nonsup man (hi man a) b)
        else if lb < la then nonsup man a (lo man b)
        else
          mk man la
            (nonsup man (lo man a) (lo man b))
            (nonsup man (hi man a) (union man (lo man b) (hi man b))))

let rec maximal man a =
  if a < 2 then a
  else
    cached man op_maximal a a (fun () ->
        let h' = maximal man (hi man a) in
        let l' = nonsub man (maximal man (lo man a)) h' in
        mk man (level man a) l' h')

let rec minimal man a =
  if a < 2 then a
  else
    cached man op_minimal a a (fun () ->
        let l' = minimal man (lo man a) in
        let h' = nonsup man (minimal man (hi man a)) l' in
        mk man (level man a) l' h')

let check_elem man v =
  if v < 0 || v >= man.s.n then invalid_arg "Zdd: element out of range"

let rec change man t v =
  check_elem man v;
  let lv = man.s.var_level.(v) in
  if t = 0 then 0
  else if level man t > lv then mk man lv 0 t
  else if level man t = lv then mk man lv (hi man t) (lo man t)
  else mk man (level man t) (change man (lo man t) v) (change man (hi man t) v)

let rec subset0 man t v =
  check_elem man v;
  let lv = man.s.var_level.(v) in
  if t < 2 then t
  else if level man t > lv then t
  else if level man t = lv then lo man t
  else
    mk man (level man t) (subset0 man (lo man t) v) (subset0 man (hi man t) v)

let rec subset1 man t v =
  check_elem man v;
  let lv = man.s.var_level.(v) in
  if t < 2 then 0
  else if level man t > lv then 0
  else if level man t = lv then hi man t
  else
    mk man (level man t) (subset1 man (lo man t) v) (subset1 man (hi man t) v)

let singleton man set =
  let sorted = List.sort_uniq compare set in
  List.iter (check_elem man) sorted;
  let by_level_desc =
    let vl = man.s.var_level in
    List.sort (fun a b -> compare vl.(b) vl.(a)) sorted
  in
  List.fold_left (fun acc v -> mk man man.s.var_level.(v) 0 acc) 1 by_level_desc

let of_family man sets =
  List.fold_left (fun acc s -> union man acc (singleton man s)) 0 sets

let to_family man t =
  let rec go t prefix acc =
    if t = 0 then acc
    else if t = 1 then List.rev prefix :: acc
    else
      let v = elem man t in
      let acc = go (lo man t) prefix acc in
      go (hi man t) (v :: prefix) acc
  in
  List.rev (go t [] [])

let count man t =
  let memo = Hashtbl.create 64 in
  let rec go t =
    if t = 0 then 0.
    else if t = 1 then 1.
    else
      match Hashtbl.find_opt memo t with
      | Some c -> c
      | None ->
          let c = go (lo man t) +. go (hi man t) in
          Hashtbl.add memo t c;
          c
  in
  go t

let count_by_size man t =
  let len = man.s.n + 1 in
  let memo = Hashtbl.create 64 in
  let rec go t =
    if t = 0 then Array.make len 0.
    else if t = 1 then begin
      let a = Array.make len 0. in
      a.(0) <- 1.;
      a
    end
    else
      match Hashtbl.find_opt memo t with
      | Some a -> a
      | None ->
          let lo_counts = go (lo man t) and hi_counts = go (hi man t) in
          let a = Array.copy lo_counts in
          for k = len - 1 downto 1 do
            a.(k) <- a.(k) +. hi_counts.(k - 1)
          done;
          Hashtbl.add memo t a;
          a
  in
  go t

let mem man t set =
  let sorted = List.sort_uniq compare set in
  List.iter (check_elem man) sorted;
  let by_level =
    let vl = man.s.var_level in
    List.sort (fun a b -> compare vl.(a) vl.(b)) sorted
  in
  let rec go t = function
    | [] ->
        let rec down t = if t < 2 then t = 1 else down (lo man t) in
        down t
    | v :: rest ->
        if t < 2 then false
        else
          let lt = level man t and lv = man.s.var_level.(v) in
          if lt > lv then false
          else if lt = lv then go (hi man t) rest
          else go (lo man t) (v :: rest)
  in
  go t by_level

let size man t = S.size man.s [ t ]

let import man (d : Ovo_core.Diagram.t) =
  if d.kind <> Ovo_core.Compact.Zdd then
    invalid_arg "Zdd.import: not a ZDD-rule diagram";
  if d.num_terminals <> 2 then invalid_arg "Zdd.import: not two-terminal";
  S.import man.s "Zdd.import" ~mk:(mk man) d

let of_truthtable man tt =
  S.of_mtable man.s "Zdd.of_truthtable" ~kind:Ovo_core.Compact.Zdd
    ~mk:(mk man)
    (Ovo_boolfun.Mtable.of_truthtable tt)

let to_truthtable man t =
  Ovo_boolfun.Truthtable.of_fun man.s.n (fun code ->
      let set = ref [] in
      for v = man.s.n - 1 downto 0 do
        if code land (1 lsl v) <> 0 then set := v :: !set
      done;
      mem man t !set)

let to_dot man t = S.to_dot man.s ~graph:"zdd" ~prefix:"e" t
