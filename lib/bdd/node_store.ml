type t = {
  n : int;
  level_var : int array;
  var_level : int array;
  mutable levels : int array;
  mutable los : int array;
  mutable his : int array;
  mutable next : int;
  unique : (int * int, int) Hashtbl.t array;
  leaves : (int, int) Hashtbl.t;
}

let level s u = s.levels.(u)
let lo s u = s.los.(u)
let hi s u = s.his.(u)
let is_leaf s u = s.levels.(u) = s.n
let leaf_value s u = s.los.(u)

let alloc s lvl l h =
  let cap = Array.length s.levels in
  if s.next >= cap then begin
    let resize a = Array.append a (Array.make cap 0) in
    s.levels <- resize s.levels;
    s.los <- resize s.los;
    s.his <- resize s.his
  end;
  let u = s.next in
  s.next <- u + 1;
  s.levels.(u) <- lvl;
  s.los.(u) <- l;
  s.his.(u) <- h;
  u

let leaf s v =
  match Hashtbl.find_opt s.leaves v with
  | Some u -> u
  | None ->
      let u = alloc s s.n v v in
      Hashtbl.add s.leaves v u;
      u

let node s lvl l h =
  match Hashtbl.find_opt s.unique.(lvl) (l, h) with
  | Some u -> u
  | None ->
      let u = alloc s lvl l h in
      Hashtbl.add s.unique.(lvl) (l, h) u;
      u

let invert fn n order =
  if Array.length order <> n then invalid_arg (fn ^ ": bad order length");
  let var_level = Array.make n (-1) in
  Array.iteri
    (fun l v ->
      if v < 0 || v >= n || var_level.(v) >= 0 then
        invalid_arg (fn ^ ": order is not a permutation");
      var_level.(v) <- l)
    order;
  var_level

let create name ?order n =
  if n < 0 then invalid_arg (name ^ ".create");
  let level_var =
    match order with None -> Array.init n Fun.id | Some o -> Array.copy o
  in
  let var_level = invert (name ^ ".create") n level_var in
  let s =
    {
      n;
      level_var;
      var_level;
      levels = Array.make 64 0;
      los = Array.make 64 0;
      his = Array.make 64 0;
      next = 0;
      unique = Array.init n (fun _ -> Hashtbl.create 64);
      leaves = Hashtbl.create 8;
    }
  in
  ignore (leaf s 0);
  ignore (leaf s 1);
  s

let iter_reachable s roots f =
  let visited = Hashtbl.create 256 in
  let rec go u =
    if not (Hashtbl.mem visited u) then begin
      Hashtbl.replace visited u ();
      f u;
      if not (is_leaf s u) then begin
        go (lo s u);
        go (hi s u)
      end
    end
  in
  List.iter go roots

let size s roots =
  let count = ref 0 in
  iter_reachable s roots (fun _ -> incr count);
  !count

let node_count s = s.next

let import s fn ~mk (d : Ovo_core.Diagram.t) =
  if d.n <> s.n then invalid_arg (fn ^ ": arity mismatch");
  Array.iteri
    (fun j v ->
      if s.level_var.(s.n - 1 - j) <> v then
        invalid_arg (fn ^ ": ordering mismatch"))
    d.order;
  let memo = Hashtbl.create 64 in
  let rec go u =
    if u < d.num_terminals then leaf s u
    else
      match Hashtbl.find_opt memo u with
      | Some r -> r
      | None ->
          let nd = d.nodes.(u - d.num_terminals) in
          let r = mk s.var_level.(nd.var) (go nd.lo) (go nd.hi) in
          Hashtbl.add memo u r;
          r
  in
  go d.root

let of_mtable s fn ~kind ~mk mt =
  if Ovo_boolfun.Mtable.arity mt <> s.n then
    invalid_arg (fn ^ ": arity mismatch");
  let order = Ovo_core.Eval_order.read_first s.level_var in
  let st = Ovo_core.Eval_order.state_mtable ~kind mt order in
  import s fn ~mk (Ovo_core.Diagram.of_state st)

let to_dot s ~graph ~prefix root =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "digraph %s {\n  rankdir=TB;\n" graph;
  iter_reachable s [ root ] (fun u ->
      if is_leaf s u then
        Printf.bprintf buf "  n%d [shape=box,label=\"%d\"];\n" u
          (leaf_value s u)
      else begin
        Printf.bprintf buf "  n%d [shape=circle,label=\"%s%d\"];\n" u prefix
          s.level_var.(level s u);
        Printf.bprintf buf "  n%d -> n%d [style=dashed];\n" u (lo s u);
        Printf.bprintf buf "  n%d -> n%d;\n" u (hi s u)
      end);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
