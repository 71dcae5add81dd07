module C = Ovo_core.Compact

type result = { mincost : int; order : int array }

type t = {
  metrics : Ovo_core.Metrics.t;
  base : C.state;
  mutable order : int array;
  states : C.state array;
      (* [states.(k)]: [order.(0..k-1)] compacted from [base]; held for
         [k <= depth], the rest point at [base] so they are not kept alive *)
  mutable depth : int;
  widths : int array;
  mutable cost : int;
}

let cost t = t.cost
let order t = Array.copy t.order
let widths t = Array.copy t.widths
let result t = { mincost = t.cost; order = order t }
let compact t st v = C.compact ~metrics:t.metrics st v
let width_of t st v = C.width_if_compacted ~metrics:t.metrics st v

let prefix t k =
  while t.depth < k do
    t.states.(t.depth + 1) <- compact t t.states.(t.depth) t.order.(t.depth);
    t.depth <- t.depth + 1
  done;
  t.states.(k)

(* Total width of the levels [k..n-1], which no candidate changing only
   positions below [k] can alter (Lemma 3). *)
let above t k =
  let s = ref 0 in
  for j = k to Array.length t.widths - 1 do
    s := !s + t.widths.(j)
  done;
  !s

(* Lowest and highest positions where [cand] differs from the order. *)
let changed t cand =
  let n = Array.length t.order in
  if Array.length cand <> n then invalid_arg "Chain: wrong order length";
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < n && cand.(!lo) = t.order.(!lo) do
    incr lo
  done;
  while !hi > !lo && cand.(!hi) = t.order.(!hi) do
    decr hi
  done;
  if !lo = n then None else Some (!lo, !hi)

(* The cost of [cand] without accepting it: the prefix below its first
   change, a chain through its last change, the widths above. *)
let price_candidate t cand =
  match changed t cand with
  | None -> t.cost
  | Some (lo, hi) ->
      let st = ref (prefix t lo) in
      for j = lo to hi - 1 do
        st := compact t !st cand.(j)
      done;
      !st.C.mincost + width_of t !st cand.(hi) + above t (hi + 1)

let accept t cand =
  match changed t cand with
  | None -> ()
  | Some (lo, hi) ->
      ignore (prefix t lo);
      let held = t.depth in
      t.order <- Array.copy cand;
      for j = lo to hi do
        let st = t.states.(j) in
        let next = compact t st cand.(j) in
        let w = next.C.mincost - st.C.mincost in
        t.cost <- t.cost - t.widths.(j) + w;
        t.widths.(j) <- w;
        t.states.(j + 1) <- next
      done;
      for k = hi + 2 to held do
        t.states.(k) <- t.base
      done;
      t.depth <- hi + 1

let price t cand =
  accept t cand;
  t.cost

let create ~metrics ~kind ?initial mt =
  let n = Ovo_boolfun.Mtable.arity mt in
  let base = C.initial kind mt in
  let t =
    {
      metrics;
      base;
      order =
        (match initial with None -> Perm.identity n | Some o -> Array.copy o);
      states = Array.make (n + 1) base;
      depth = 0;
      widths = Array.make n 0;
      cost = 0;
    }
  in
  for j = 0 to n - 1 do
    let st = prefix t j in
    t.widths.(j) <- (prefix t (j + 1)).C.mincost - st.C.mincost
  done;
  t.cost <- (prefix t n).C.mincost;
  t

let price_move t ~from ~to_ = price_candidate t (Perm.move t.order ~from ~to_)

let price_sift t ~from =
  let n = Array.length t.order in
  let v = t.order.(from) in
  let costs = Array.make n t.cost in
  (* upward: the variables above [from] slide down one level each, so
     the chain over them is shared and [v] is probed on top of it *)
  let st = ref (prefix t from) in
  for target = from + 1 to n - 1 do
    st := compact t !st t.order.(target);
    costs.(target) <- !st.C.mincost + width_of t !st v + above t (target + 1)
  done;
  (* downward: [v] goes in at [target] and [order.(target..from-1)]
     slide up one level, so each target needs its own chain *)
  for target = 0 to from - 1 do
    let st = ref (compact t (prefix t target) v) in
    for j = target to from - 2 do
      st := compact t !st t.order.(j)
    done;
    costs.(target) <-
      !st.C.mincost + width_of t !st t.order.(from - 1) + above t (from + 1)
  done;
  costs

let price_window t ~start block =
  let cand = Array.copy t.order in
  Array.blit block 0 cand start (Array.length block);
  price_candidate t cand
