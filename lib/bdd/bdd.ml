(* A manager is a node store (see node_store.mli) plus the ite cache
   and the protected roots; the BDD rule elides a node whose children
   are equal.  Leaf ids 0 and 1 are false and true, and a leaf's level
   is [n] (below every variable), which makes the min-level cofactoring
   in [ite] uniform. *)

module S = Node_store

type man = {
  s : S.t;
  ite_cache : (int * int * int, int) Hashtbl.t;
  mutable roots : int list;  (* protected *)
}

type t = int

let create ?order n =
  { s = S.create "Bdd" ?order n; ite_cache = Hashtbl.create 256; roots = [] }

let nvars man = man.s.n
let order man = Array.copy man.s.level_var
let node_count man = S.node_count man.s

let bfalse _man = 0
let btrue _man = 1

let equal (a : t) (b : t) = a = b
let is_false _man t = t = 0
let is_true _man t = t = 1

let level man u = S.level man.s u
let lo man u = S.lo man.s u
let hi man u = S.hi man.s u

let mk man lvl l h = if l = h then l else S.node man.s lvl l h

let var man v =
  if v < 0 || v >= man.s.n then invalid_arg "Bdd.var";
  mk man man.s.var_level.(v) 0 1

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
  if v < 0 || v >= man.s.n then invalid_arg "Bdd.restrict";
  let lvl = man.s.var_level.(v) in
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

let support man t =
  let tested = Array.make man.s.n false in
  S.iter_reachable man.s [ t ] (fun u ->
      if u >= 2 then tested.(level man u) <- true);
  List.filter (fun v -> tested.(man.s.var_level.(v))) (List.init man.s.n Fun.id)

let eval man t code =
  let rec go u =
    if u < 2 then u = 1
    else
      let v = man.s.level_var.(level man u) in
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
        let v = man.s.level_var.(level man u) in
        if lo man u <> 0 then go (lo man u) ((v, false) :: acc)
        else go (hi man u) ((v, true) :: acc)
    in
    go t []

let shared_size man ts = S.size man.s ts
let size man t = S.size man.s [ t ]

let of_truthtable man tt =
  S.of_mtable man.s "Bdd.of_truthtable" ~kind:Ovo_core.Compact.Bdd
    ~mk:(mk man)
    (Ovo_boolfun.Mtable.of_truthtable tt)

let to_truthtable man t = Ovo_boolfun.Truthtable.of_fun man.s.n (eval man t)

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
  if d.kind <> Ovo_core.Compact.Bdd then
    invalid_arg "Bdd.import: not a BDD diagram";
  if d.num_terminals <> 2 then invalid_arg "Bdd.import: not two-terminal";
  S.import man.s "Bdd.import" ~mk:(mk man) d

let cube_cover man t =
  let rec go u prefix acc =
    if u = 0 then acc
    else if u = 1 then List.rev prefix :: acc
    else
      let v = man.s.level_var.(level man u) in
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

let to_dot man t = S.to_dot man.s ~graph:"bdd" ~prefix:"x" t

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
  if l < 0 || l + 1 >= man.s.n then invalid_arg "Bdd.swap_levels";
  let top = Hashtbl.fold (fun _ u acc -> u :: acc) man.s.unique.(l) [] in
  let bottom_tbl = man.s.unique.(l + 1) in
  let bottom = Hashtbl.fold (fun _ u acc -> u :: acc) bottom_tbl [] in
  let in_bottom = Hashtbl.create (List.length bottom) in
  List.iter (fun u -> Hashtbl.replace in_bottom u ()) bottom;
  man.s.unique.(l) <- Hashtbl.create (List.length top);
  man.s.unique.(l + 1) <- Hashtbl.create (List.length bottom);
  let add lvl u =
    let key = (lo man u, hi man u) in
    assert (not (Hashtbl.mem man.s.unique.(lvl) key));
    man.s.levels.(u) <- lvl;
    Hashtbl.add man.s.unique.(lvl) key u
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
      man.s.los.(u) <- new_lo;
      man.s.his.(u) <- new_hi;
      add l u)
    dependent;
  let x = man.s.level_var.(l) and y = man.s.level_var.(l + 1) in
  man.s.level_var.(l) <- y;
  man.s.level_var.(l + 1) <- x;
  man.s.var_level.(x) <- l + 1;
  man.s.var_level.(y) <- l

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
  S.iter_reachable man.s man.roots (fun u -> Hashtbl.replace live u ());
  Array.iteri
    (fun lvl tbl ->
      let dead =
        Hashtbl.fold
          (fun key u acc -> if Hashtbl.mem live u then acc else key :: acc)
          tbl []
      in
      List.iter (Hashtbl.remove man.s.unique.(lvl)) dead)
    man.s.unique;
  (* operation-cache entries may reference dead nodes; results must not
     resurrect them through the unique tables, so drop the cache *)
  Hashtbl.reset man.ite_cache

let sift man =
  if man.s.n > 1 && man.roots <> [] then begin
    let improved = ref true and passes = ref 0 in
    while !improved && !passes < 4 do
      incr passes;
      improved := false;
      (* fattest variables first: count live nodes per level *)
      let counts = Array.make man.s.n 0 in
      S.iter_reachable man.s man.roots (fun u ->
          if u >= 2 then counts.(level man u) <- counts.(level man u) + 1);
      let schedule =
        List.sort
          (fun (_, c1) (_, c2) -> compare c2 c1)
          (List.init man.s.n (fun l -> (man.s.level_var.(l), counts.(l))))
      in
      List.iter
        (fun (v, _) ->
          let start_size = live_size man in
          let best_size = ref start_size in
          let best_pos = ref man.s.var_level.(v) in
          (* walk v down to the bottom, then up to the top, tracking the
             best position seen *)
          let probe () =
            let here = live_size man in
            if here < !best_size then begin
              best_size := here;
              best_pos := man.s.var_level.(v)
            end
          in
          while man.s.var_level.(v) < man.s.n - 1 do
            swap_levels man man.s.var_level.(v);
            probe ()
          done;
          while man.s.var_level.(v) > 0 do
            swap_levels man (man.s.var_level.(v) - 1);
            probe ()
          done;
          move_level man ~from:man.s.var_level.(v) ~target:!best_pos;
          (* the walk leaves dead nodes in the level tables; collecting
             them keeps every later swap proportional to the live size *)
          compress man;
          if !best_size < start_size then improved := true)
        schedule
    done
  end

let set_order man target =
  ignore (S.invert "Bdd.set_order" man.s.n target);
  for l = 0 to man.s.n - 1 do
    (* bring target.(l) to level l *)
    let v = target.(l) in
    move_level man ~from:man.s.var_level.(v) ~target:l
  done

let check_invariants man =
  let ok = ref true in
  (* level_var/var_level mutually inverse *)
  Array.iteri
    (fun l v -> if man.s.var_level.(v) <> l then ok := false)
    man.s.level_var;
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
    man.s.unique;
  (* no duplicate (level, lo, hi) among live nodes *)
  let seen = Hashtbl.create 256 in
  S.iter_reachable man.s man.roots (fun u ->
      if u >= 2 then begin
        let key = (level man u, lo man u, hi man u) in
        if Hashtbl.mem seen key then ok := false;
        Hashtbl.replace seen key ()
      end);
  !ok
