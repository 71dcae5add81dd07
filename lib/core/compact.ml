type kind = Bdd | Zdd

type level = { var : int; first : int; pairs : int array }

type state = {
  n : int;
  kind : kind;
  num_terminals : int;
  assigned : Varset.t;
  order_rev : int list;
  table : int array;
  levels : level list;
  mincost : int;
  next_id : int;
}

(* [FS(∅)] over the tables of [table], with [mt]'s arity and alphabet. *)
let make kind mt table =
  let num_terminals = Ovo_boolfun.Mtable.num_values mt in
  {
    n = Ovo_boolfun.Mtable.arity mt;
    kind;
    num_terminals;
    assigned = Varset.empty;
    order_rev = [];
    table;
    levels = [];
    mincost = 0;
    next_id = num_terminals;
  }

let initial kind mt =
  make kind mt
    (Array.init (1 lsl Ovo_boolfun.Mtable.arity mt) (Ovo_boolfun.Mtable.eval mt))

let of_mtables kind mts =
  let n = Ovo_boolfun.Mtable.arity mts.(0) in
  make kind mts.(0)
    (Array.init (Array.length mts lsl n) (fun c ->
         Ovo_boolfun.Mtable.eval mts.(c lsr n) (c land ((1 lsl n) - 1))))

let of_truthtable kind tt =
  initial kind (Ovo_boolfun.Mtable.of_truthtable tt)

let check_var name st i =
  if i < 0 || i >= st.n then
    invalid_arg (Printf.sprintf "Compact.%s: variable out of range" name);
  if Varset.mem i st.assigned then
    invalid_arg (Printf.sprintf "Compact.%s: variable already assigned" name)

let free st = Varset.diff (Varset.full st.n) st.assigned

let roots st = Array.length st.table lsr Varset.cardinal (free st)

(* A claimed pair table for a scan that compacts [st] w.r.t. [i].  The
   root index sits above the free variables' bits of a cell index, so
   one scan of [st.table] is the roots' scans in turn, sharing one pair
   set as they share nodes. *)
let claim st i =
  Pair_table.claim
    ~zdd:(match st.kind with Zdd -> true | Bdd -> false)
    ~bit:(Varset.rank_in i (free st))
    ~next_id:st.next_id
    ~cells:(Array.length st.table / 2)

(* One table compaction w.r.t. variable [i].  For each assignment [b] to
   the remaining free variables, fetch the two cofactor nodes and apply
   the reduction rule of [st.kind]; create a fresh node only when the pair
   is new at this variable.  A pair can never collide with a node of
   [st.levels]: those test previously assigned variables, while [i] is
   still free, so the per-variable node key [(i, lo, hi)] is fresh by
   construction — dedup only has to look at pairs seen in this scan.  A
   scan that creates no node adds no level. *)
let compact_gen ~charge ~metrics st i =
  let pt = claim st i in
  let table = Pair_table.compact pt st.table in
  let width = Pair_table.width pt in
  let levels =
    if width = 0 then st.levels
    else { var = i; first = st.next_id; pairs = Pair_table.pairs pt } :: st.levels
  in
  Pair_table.release pt;
  Metrics.add_nodes metrics width;
  (match charge with
  | `Direct ->
      Metrics.add_cells metrics (Array.length table);
      Metrics.add_compaction metrics
  | `Materialise -> Metrics.add_state metrics);
  {
    st with
    assigned = Varset.add i st.assigned;
    order_rev = i :: st.order_rev;
    table;
    levels;
    mincost = st.mincost + width;
    next_id = st.next_id + width;
  }

let compact ~metrics st i =
  check_var "compact" st i;
  compact_gen ~charge:`Direct ~metrics st i

let materialise ~metrics st i =
  check_var "materialise" st i;
  compact_gen ~charge:`Materialise ~metrics st i

(* The cost-only kernel: the same scan as [compact], recording the
   scan's pairs in the domain's reused pair table and building nothing.
   Exactness relies on the freshness argument above: the number of
   nodes [compact st i] would create is the number of distinct unelided
   [(lo, hi)] pairs in this scan. *)
let width_if_compacted ~metrics st i =
  check_var "width_if_compacted" st i;
  let pt = claim st i in
  Pair_table.count pt st.table;
  let width = Pair_table.width pt in
  Pair_table.release pt;
  Metrics.add_cells metrics (Array.length st.table / 2);
  Metrics.add_probe metrics;
  width

(* The sweep kernel: the same two scans over arena slices. *)
let slice_claim kind (src : Arena.layer) ~bit ~next_id =
  Pair_table.claim
    ~zdd:(match kind with Zdd -> true | Bdd -> false)
    ~bit ~next_id ~cells:(src.cells / 2)

let load st (l : Arena.layer) r = Arena.blit st.table l ~pos:(r * l.cells)

let probe ~metrics kind src r ~bit ~next_id =
  let pt = slice_claim kind src ~bit ~next_id in
  Pair_table.count_slice pt src r;
  let width = Pair_table.width pt in
  Pair_table.release pt;
  Metrics.add_cells metrics (src.cells / 2);
  Metrics.add_probe metrics;
  width

let write ~metrics kind src r dst dr ~bit ~next_id =
  let pt = slice_claim kind src ~bit ~next_id in
  Pair_table.compact_slice pt src r dst dr;
  let width = Pair_table.width pt in
  Pair_table.release pt;
  Metrics.add_nodes metrics width;
  Metrics.add_state metrics;
  width

let compact_chain ~metrics st vars =
  Array.fold_left (fun st i -> compact ~metrics st i) st vars

let weighted_cost ~weights st =
  List.fold_left
    (fun acc { var; pairs; _ } ->
      acc + (weights.(var) * (Array.length pairs / 2)))
    0 st.levels

let iter_nodes f levels =
  List.iter
    (fun { var; first; pairs } ->
      for j = 0 to (Array.length pairs / 2) - 1 do
        f (first + j) ~var ~lo:pairs.(2 * j) ~hi:pairs.((2 * j) + 1)
      done)
    levels

let order st = List.rev st.order_rev

let is_complete st = st.assigned = Varset.full st.n

let root st =
  if not (is_complete st) then invalid_arg "Compact.root: state not complete";
  if roots st <> 1 then invalid_arg "Compact.root: state has several roots";
  st.table.(0)
