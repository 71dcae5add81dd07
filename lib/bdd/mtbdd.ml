(* A manager is a node store (see node_store.mli) plus the caches of
   [add], [max_] and [min_]: any int may be a leaf, and inner nodes
   follow the BDD rule (a node with equal children is elided). *)

module S = Node_store

type man = {
  s : S.t;
  add_cache : (int * int, int) Hashtbl.t;
  max_cache : (int * int, int) Hashtbl.t;
  min_cache : (int * int, int) Hashtbl.t;
}

type t = int

let create ?order n =
  {
    s = S.create "Mtbdd" ?order n;
    add_cache = Hashtbl.create 64;
    max_cache = Hashtbl.create 64;
    min_cache = Hashtbl.create 64;
  }

let nvars man = man.s.n
let terminal man v = S.leaf man.s v
let is_leaf man u = S.is_leaf man.s u
let leaf_value man u = S.leaf_value man.s u

let value man u = if is_leaf man u then Some (leaf_value man u) else None

let equal (a : t) (b : t) = a = b

let level man u = S.level man.s u
let lo man u = S.lo man.s u
let hi man u = S.hi man.s u

let mk man lvl l h = if l = h then l else S.node man.s lvl l h

let select man v if_false if_true =
  if v < 0 || v >= man.s.n then invalid_arg "Mtbdd.select";
  mk man man.s.var_level.(v) if_false if_true

let apply1 man f t =
  let memo = Hashtbl.create 64 in
  let rec go u =
    match Hashtbl.find_opt memo u with
    | Some r -> r
    | None ->
        let r =
          if is_leaf man u then terminal man (f (leaf_value man u))
          else mk man (level man u) (go (lo man u)) (go (hi man u))
        in
        Hashtbl.add memo u r;
        r
  in
  go t

let apply2_with man cache f a b =
  let rec go a b =
    if is_leaf man a && is_leaf man b then
      terminal man (f (leaf_value man a) (leaf_value man b))
    else
      let key = (a, b) in
      match Hashtbl.find_opt cache key with
      | Some r -> r
      | None ->
          let m = min (level man a) (level man b) in
          let cof u =
            if level man u = m then (lo man u, hi man u) else (u, u)
          in
          let a0, a1 = cof a and b0, b1 = cof b in
          let r = mk man m (go a0 b0) (go a1 b1) in
          Hashtbl.add cache key r;
          r
  in
  go a b

let apply2 man f a b = apply2_with man (Hashtbl.create 64) f a b

let add man a b = apply2_with man man.add_cache ( + ) a b
let max_ man a b = apply2_with man man.max_cache max a b
let min_ man a b = apply2_with man man.min_cache min a b

let restrict man t ~var:v b =
  if v < 0 || v >= man.s.n then invalid_arg "Mtbdd.restrict";
  let lvl = man.s.var_level.(v) in
  let memo = Hashtbl.create 64 in
  let rec go u =
    let l = level man u in
    if l > lvl then u
    else if l = lvl then if b then hi man u else lo man u
    else
      match Hashtbl.find_opt memo u with
      | Some r -> r
      | None ->
          let r = mk man l (go (lo man u)) (go (hi man u)) in
          Hashtbl.add memo u r;
          r
  in
  go t

let eval man t code =
  let rec go u =
    if is_leaf man u then leaf_value man u
    else
      let v = man.s.level_var.(level man u) in
      if code land (1 lsl v) <> 0 then go (hi man u) else go (lo man u)
  in
  go t

let of_mtable man mt =
  S.of_mtable man.s "Mtbdd.of_mtable" ~kind:Ovo_core.Compact.Bdd ~mk:(mk man)
    mt

let to_mtable man ~values t =
  Ovo_boolfun.Mtable.of_fun man.s.n ~values (eval man t)

let import man (d : Ovo_core.Diagram.t) =
  if d.kind <> Ovo_core.Compact.Bdd then
    invalid_arg "Mtbdd.import: ZDD-rule diagram";
  S.import man.s "Mtbdd.import" ~mk:(mk man) d

let size man t = S.size man.s [ t ]

let to_dot man t = S.to_dot man.s ~graph:"mtbdd" ~prefix:"x" t
