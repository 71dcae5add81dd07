(* Node ids: 0 = false, 1 = true, inner nodes from 2 up.  Inner node [u]
   lives at index [u - 2] of the [levels]/[los]/[his] stores.  The level
   of a terminal is [n] (below every variable), which makes the min-level
   cofactoring in [ite] uniform.  Node contents are mutable (a swap
   rewrites them) and the unique tables are per level, keyed by
   (lo, hi). *)

type man = {
  n : int;
  level_var : int array;  (* level -> variable label *)
  var_level : int array;  (* variable label -> level *)
  mutable levels : int array;
  mutable los : int array;
  mutable his : int array;
  mutable next : int;  (* next free index into the stores *)
  unique : (int * int, int) Hashtbl.t array;  (* one table per level *)
  ite_cache : (int * int * int, int) Hashtbl.t;
  mutable roots : int list;  (* protected *)
}

type t = int

let create ?order n =
  if n < 0 then invalid_arg "Bdd.create";
  let level_var =
    match order with
    | None -> Array.init n (fun i -> i)
    | Some o ->
        if Array.length o <> n then invalid_arg "Bdd.create: bad order length";
        Array.copy o
  in
  let var_level = Array.make n (-1) in
  Array.iteri
    (fun l v ->
      if v < 0 || v >= n || var_level.(v) >= 0 then
        invalid_arg "Bdd.create: order is not a permutation";
      var_level.(v) <- l)
    level_var;
  {
    n;
    level_var;
    var_level;
    levels = Array.make 64 0;
    los = Array.make 64 0;
    his = Array.make 64 0;
    next = 0;
    unique = Array.init (max n 1) (fun _ -> Hashtbl.create 64);
    ite_cache = Hashtbl.create 256;
    roots = [];
  }

let nvars man = man.n
let order man = Array.copy man.level_var
let node_count man = man.next + 2

let bfalse _man = 0
let btrue _man = 1

let equal (a : t) (b : t) = a = b
let is_false _man t = t = 0
let is_true _man t = t = 1

let level man u = if u < 2 then man.n else man.levels.(u - 2)
let lo man u = man.los.(u - 2)
let hi man u = man.his.(u - 2)

let grow man =
  let cap = Array.length man.levels in
  if man.next >= cap then begin
    let resize a = Array.append a (Array.make cap 0) in
    man.levels <- resize man.levels;
    man.los <- resize man.los;
    man.his <- resize man.his
  end

let mk man lvl l h =
  if l = h then l
  else
    match Hashtbl.find_opt man.unique.(lvl) (l, h) with
    | Some u -> u
    | None ->
        grow man;
        let idx = man.next in
        man.next <- idx + 1;
        man.levels.(idx) <- lvl;
        man.los.(idx) <- l;
        man.his.(idx) <- h;
        let u = idx + 2 in
        Hashtbl.add man.unique.(lvl) (l, h) u;
        u

let var man v =
  if v < 0 || v >= man.n then invalid_arg "Bdd.var";
  mk man man.var_level.(v) 0 1

(* The ite cache survives reordering because ids keep their functions;
   see the interface comment. *)
let rec ite man f g h =
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else
    let key = (f, g, h) in
    match Hashtbl.find_opt man.ite_cache key with
    | Some r -> r
    | None ->
        let m = min (level man f) (min (level man g) (level man h)) in
        let cof u = if level man u = m then (lo man u, hi man u) else (u, u) in
        let f0, f1 = cof f and g0, g1 = cof g and h0, h1 = cof h in
        let r = mk man m (ite man f0 g0 h0) (ite man f1 g1 h1) in
        Hashtbl.add man.ite_cache key r;
        r

let not_ man f = ite man f 0 1
let and_ man a b = ite man a b 0
let or_ man a b = ite man a 1 b
let xor_ man a b = ite man a (not_ man b) b
let imp man a b = ite man a b 1
let iff man a b = ite man a b (not_ man b)

let restrict man t ~var:v b =
  if v < 0 || v >= man.n then invalid_arg "Bdd.restrict";
  let lvl = man.var_level.(v) in
  let memo = Hashtbl.create 64 in
  let rec go u =
    if level man u >= lvl then
      if level man u = lvl then if b then hi man u else lo man u else u
    else
      match Hashtbl.find_opt memo u with
      | Some r -> r
      | None ->
          let r = mk man (level man u) (go (lo man u)) (go (hi man u)) in
          Hashtbl.add memo u r;
          r
  in
  go t

let exists man vars t =
  List.fold_left
    (fun acc v ->
      or_ man (restrict man acc ~var:v false) (restrict man acc ~var:v true))
    t vars

let forall man vars t =
  List.fold_left
    (fun acc v ->
      and_ man (restrict man acc ~var:v false) (restrict man acc ~var:v true))
    t vars

let compose_var man f ~var:v g =
  ite man g (restrict man f ~var:v true) (restrict man f ~var:v false)

(* Visit every node reachable from [roots] once, terminals included,
   each before its children (lo first). *)
let iter_reachable man roots f =
  let visited = Hashtbl.create 256 in
  let rec go u =
    if not (Hashtbl.mem visited u) then begin
      Hashtbl.replace visited u ();
      f u;
      if u >= 2 then begin
        go (lo man u);
        go (hi man u)
      end
    end
  in
  List.iter go roots

let support man t =
  let tested = Array.make man.n false in
  iter_reachable man [ t ] (fun u ->
      if u >= 2 then tested.(level man u) <- true);
  List.filter (fun v -> tested.(man.var_level.(v))) (List.init man.n Fun.id)

let eval man t code =
  let rec go u =
    if u < 2 then u = 1
    else
      let v = man.level_var.(level man u) in
      if code land (1 lsl v) <> 0 then go (hi man u) else go (lo man u)
  in
  go t

let satcount man t =
  let memo = Hashtbl.create 64 in
  (* weight u = #satisfying assignments of the variables strictly below
     level(u) *)
  let rec weight u =
    if u = 0 then 0.
    else if u = 1 then 1.
    else
      match Hashtbl.find_opt memo u with
      | Some w -> w
      | None ->
          let gap child =
            Float.pow 2. (float_of_int (level man child - level man u - 1))
          in
          let w =
            (weight (lo man u) *. gap (lo man u))
            +. (weight (hi man u) *. gap (hi man u))
          in
          Hashtbl.add memo u w;
          w
  in
  weight t *. Float.pow 2. (float_of_int (level man t))

let sat_one man t =
  if t = 0 then None
  else
    let rec go u acc =
      if u = 1 then Some (List.rev acc)
      else
        let v = man.level_var.(level man u) in
        if lo man u <> 0 then go (lo man u) ((v, false) :: acc)
        else go (hi man u) ((v, true) :: acc)
    in
    go t []

let shared_size man ts =
  let count = ref 0 in
  iter_reachable man ts (fun _ -> incr count);
  !count

let size man t = shared_size man [ t ]

let of_truthtable man tt =
  if Ovo_boolfun.Truthtable.arity tt <> man.n then
    invalid_arg "Bdd.of_truthtable: arity mismatch";
  (* permute so that the table's variable [l] is the manager's level [l] *)
  let permuted =
    if man.n = 0 then tt
    else Ovo_boolfun.Truthtable.permute_vars tt man.level_var
  in
  let memo = Hashtbl.create 256 in
  let rec build sub lvl =
    match Ovo_boolfun.Truthtable.is_const sub with
    | Some b -> if b then 1 else 0
    | None -> (
        match Hashtbl.find_opt memo sub with
        | Some u -> u
        | None ->
            let f0, f1 = Ovo_boolfun.Truthtable.cofactors sub 0 in
            let u = mk man lvl (build f0 (lvl + 1)) (build f1 (lvl + 1)) in
            Hashtbl.add memo sub u;
            u)
  in
  build permuted 0

let to_truthtable man t = Ovo_boolfun.Truthtable.of_fun man.n (eval man t)

let of_expr man e =
  let rec go = function
    | Ovo_boolfun.Expr.Const b -> if b then 1 else 0
    | Ovo_boolfun.Expr.Var v -> var man v
    | Ovo_boolfun.Expr.Not a -> not_ man (go a)
    | Ovo_boolfun.Expr.And (a, b) -> and_ man (go a) (go b)
    | Ovo_boolfun.Expr.Or (a, b) -> or_ man (go a) (go b)
    | Ovo_boolfun.Expr.Xor (a, b) -> xor_ man (go a) (go b)
  in
  go e

let import man (d : Ovo_core.Diagram.t) =
  if d.Ovo_core.Diagram.kind <> Ovo_core.Compact.Bdd then
    invalid_arg "Bdd.import: not a BDD diagram";
  if d.Ovo_core.Diagram.num_terminals <> 2 then
    invalid_arg "Bdd.import: not two-terminal";
  if d.Ovo_core.Diagram.n <> man.n then invalid_arg "Bdd.import: arity mismatch";
  let dorder = d.Ovo_core.Diagram.order in
  Array.iteri
    (fun j v ->
      if man.level_var.(man.n - 1 - j) <> v then
        invalid_arg "Bdd.import: ordering mismatch")
    dorder;
  let memo = Hashtbl.create 64 in
  let rec go u =
    if u < d.Ovo_core.Diagram.num_terminals then u
    else
      match Hashtbl.find_opt memo u with
      | Some r -> r
      | None ->
          let nd = d.Ovo_core.Diagram.nodes.(u - d.Ovo_core.Diagram.num_terminals) in
          let r =
            mk man
              man.var_level.(nd.Ovo_core.Diagram.var)
              (go nd.Ovo_core.Diagram.lo)
              (go nd.Ovo_core.Diagram.hi)
          in
          Hashtbl.add memo u r;
          r
  in
  go d.Ovo_core.Diagram.root

let cube_cover man t =
  let rec go u prefix acc =
    if u = 0 then acc
    else if u = 1 then List.rev prefix :: acc
    else
      let v = man.level_var.(level man u) in
      let acc = go (lo man u) ((v, false) :: prefix) acc in
      go (hi man u) ((v, true) :: prefix) acc
  in
  List.rev (go t [] [])

let to_expr man t =
  let cube assignment =
    List.fold_left
      (fun acc (v, b) ->
        let lit =
          if b then Ovo_boolfun.Expr.Var v
          else Ovo_boolfun.Expr.Not (Ovo_boolfun.Expr.Var v)
        in
        match acc with
        | None -> Some lit
        | Some e -> Some (Ovo_boolfun.Expr.And (e, lit)))
      None assignment
  in
  List.fold_left
    (fun acc assignment ->
      let term =
        match cube assignment with
        | Some e -> e
        | None -> Ovo_boolfun.Expr.Const true
      in
      match acc with
      | Ovo_boolfun.Expr.Const false -> term
      | e -> Ovo_boolfun.Expr.Or (e, term))
    (Ovo_boolfun.Expr.Const false)
    (cube_cover man t)

let to_dot man t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph bdd {\n  rankdir=TB;\n";
  iter_reachable man [ t ] (fun u ->
      if u < 2 then
        Buffer.add_string buf
          (Printf.sprintf "  n%d [shape=box,label=\"%d\"];\n" u u)
      else begin
        Buffer.add_string buf
          (Printf.sprintf "  n%d [shape=circle,label=\"x%d\"];\n" u
             man.level_var.(level man u));
        Buffer.add_string buf
          (Printf.sprintf "  n%d -> n%d [style=dashed];\n" u (lo man u));
        Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" u (hi man u))
      end);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Dynamic reordering. *)

let protect man t =
  if not (List.mem t man.roots) then man.roots <- t :: man.roots

let protected man = man.roots

let live_size man = shared_size man man.roots

(* Adjacent-level swap.  Writing x for the variable at level [l] and y
   for the one at [l+1] (pre-swap):

   - level-[l] nodes not pointing into level [l+1] ("independent of y")
     move down to level [l+1] unchanged;
   - all old level-[l+1] nodes move up to level [l] unchanged (those
     only reachable through rewritten nodes become garbage, which is
     harmless);
   - each remaining level-[l] node u = x ? f1 : f0 is rewritten in place
     to test y first: u := y ? mk(x ? f11 : f01) : mk(x ? f10 : f00).

   Every id keeps its function, so by canonicity no two rebuilt keys can
   collide (asserted). *)
let swap_levels man l =
  if l < 0 || l + 1 >= man.n then invalid_arg "Bdd.swap_levels";
  let top = Hashtbl.fold (fun _ u acc -> u :: acc) man.unique.(l) [] in
  let bottom_tbl = man.unique.(l + 1) in
  let bottom = Hashtbl.fold (fun _ u acc -> u :: acc) bottom_tbl [] in
  let in_bottom = Hashtbl.create (List.length bottom) in
  List.iter (fun u -> Hashtbl.replace in_bottom u ()) bottom;
  man.unique.(l) <- Hashtbl.create (List.length top);
  man.unique.(l + 1) <- Hashtbl.create (List.length bottom);
  let add lvl u =
    let key = (lo man u, hi man u) in
    assert (not (Hashtbl.mem man.unique.(lvl) key));
    man.levels.(u - 2) <- lvl;
    Hashtbl.add man.unique.(lvl) key u
  in
  (* old bottom nodes rise to level l *)
  List.iter (add l) bottom;
  (* independent top nodes sink to level l+1; they must be in the table
     before the rewrites below call mk at that level *)
  let dependent, independent =
    List.partition
      (fun u ->
        Hashtbl.mem in_bottom (lo man u) || Hashtbl.mem in_bottom (hi man u))
      top
  in
  List.iter (add (l + 1)) independent;
  List.iter
    (fun u ->
      let f0 = lo man u and f1 = hi man u in
      let cof f =
        if Hashtbl.mem in_bottom f then (lo man f, hi man f) else (f, f)
      in
      let f00, f01 = cof f0 and f10, f11 = cof f1 in
      let new_lo = mk man (l + 1) f00 f10 in
      let new_hi = mk man (l + 1) f01 f11 in
      assert (new_lo <> new_hi);
      man.los.(u - 2) <- new_lo;
      man.his.(u - 2) <- new_hi;
      add l u)
    dependent;
  let x = man.level_var.(l) and y = man.level_var.(l + 1) in
  man.level_var.(l) <- y;
  man.level_var.(l + 1) <- x;
  man.var_level.(x) <- l + 1;
  man.var_level.(y) <- l

(* Move the variable currently at [from] to position [target] by
   adjacent swaps. *)
let move_level man ~from ~target =
  if from < target then
    for l = from to target - 1 do
      swap_levels man l
    done
  else
    for l = from - 1 downto target do
      swap_levels man l
    done

(* Mark-and-sweep over the unique tables.  Ids stay stable (the stores
   are not compacted), so every handle under a protected root remains
   valid; dead nodes merely become unfindable, which keeps the per-level
   tables — the dominant cost of swaps — proportional to the live size.
   A dead handle must not be used afterwards: an equivalent node may be
   re-created under a fresh id, and comparing the two would wrongly
   report inequality. *)
let compress man =
  let live = Hashtbl.create 256 in
  iter_reachable man man.roots (fun u -> Hashtbl.replace live u ());
  Array.iteri
    (fun lvl tbl ->
      let dead =
        Hashtbl.fold
          (fun key u acc -> if Hashtbl.mem live u then acc else key :: acc)
          tbl []
      in
      List.iter (Hashtbl.remove man.unique.(lvl)) dead)
    man.unique;
  (* operation-cache entries may reference dead nodes; results must not
     resurrect them through the unique tables, so drop the cache *)
  Hashtbl.reset man.ite_cache

let sift man =
  if man.n > 1 && man.roots <> [] then begin
    let improved = ref true and passes = ref 0 in
    while !improved && !passes < 4 do
      incr passes;
      improved := false;
      (* fattest variables first: count live nodes per level *)
      let counts = Array.make man.n 0 in
      iter_reachable man man.roots (fun u ->
          if u >= 2 then counts.(level man u) <- counts.(level man u) + 1);
      let schedule =
        List.sort
          (fun (_, c1) (_, c2) -> compare c2 c1)
          (List.init man.n (fun l -> (man.level_var.(l), counts.(l))))
      in
      List.iter
        (fun (v, _) ->
          let start_size = live_size man in
          let best_size = ref start_size in
          let best_pos = ref man.var_level.(v) in
          (* walk v down to the bottom, then up to the top, tracking the
             best position seen *)
          let probe () =
            let s = live_size man in
            if s < !best_size then begin
              best_size := s;
              best_pos := man.var_level.(v)
            end
          in
          while man.var_level.(v) < man.n - 1 do
            swap_levels man man.var_level.(v);
            probe ()
          done;
          while man.var_level.(v) > 0 do
            swap_levels man (man.var_level.(v) - 1);
            probe ()
          done;
          move_level man ~from:man.var_level.(v) ~target:!best_pos;
          (* the walk leaves dead nodes in the level tables; collecting
             them keeps every later swap proportional to the live size *)
          compress man;
          if !best_size < start_size then improved := true)
        schedule
    done
  end

let set_order man target =
  if Array.length target <> man.n then invalid_arg "Bdd.set_order";
  let seen = Array.make man.n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= man.n || seen.(v) then
        invalid_arg "Bdd.set_order: not a permutation";
      seen.(v) <- true)
    target;
  for l = 0 to man.n - 1 do
    (* bring target.(l) to level l *)
    let v = target.(l) in
    move_level man ~from:man.var_level.(v) ~target:l
  done

let check_invariants man =
  let ok = ref true in
  (* level_var/var_level mutually inverse *)
  Array.iteri
    (fun l v -> if man.var_level.(v) <> l then ok := false)
    man.level_var;
  (* unique tables point at nodes of their level with matching keys, and
     children sit strictly below *)
  Array.iteri
    (fun lvl tbl ->
      Hashtbl.iter
        (fun (l, h) u ->
          if level man u <> lvl then ok := false;
          if lo man u <> l || hi man u <> h then ok := false;
          if l = h then ok := false;
          if level man l <= lvl || level man h <= lvl then ok := false)
        tbl)
    man.unique;
  (* no duplicate (level, lo, hi) among live nodes *)
  let seen = Hashtbl.create 256 in
  iter_reachable man man.roots (fun u ->
      if u >= 2 then begin
        let key = (level man u, lo man u, hi man u) in
        if Hashtbl.mem seen key then ok := false;
        Hashtbl.replace seen key ()
      end);
  !ok
