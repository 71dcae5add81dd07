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

let initial kind mt =
  let n = Ovo_boolfun.Mtable.arity mt in
  let num_terminals = Ovo_boolfun.Mtable.num_values mt in
  {
    n;
    kind;
    num_terminals;
    assigned = Varset.empty;
    order_rev = [];
    table = Array.init (1 lsl n) (Ovo_boolfun.Mtable.eval mt);
    levels = [];
    mincost = 0;
    next_id = num_terminals;
  }

let of_truthtable kind tt =
  initial kind (Ovo_boolfun.Mtable.of_truthtable tt)

let check_var name st i =
  if i < 0 || i >= st.n then
    invalid_arg (Printf.sprintf "Compact.%s: variable out of range" name);
  if Varset.mem i st.assigned then
    invalid_arg (Printf.sprintf "Compact.%s: variable already assigned" name)

let free st = Varset.diff (Varset.full st.n) st.assigned

(* A claimed pair table for a scan that compacts [st] w.r.t. [i]. *)
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
   construction — dedup only has to look at pairs seen in this scan. *)
let push_level pt ~var ~first levels =
  if Pair_table.width pt = 0 then levels
  else { var; first; pairs = Pair_table.pairs pt } :: levels

let compact_gen ~charge ~metrics st i =
  let pt = claim st i in
  let table = Pair_table.compact pt st.table in
  let width = Pair_table.width pt in
  let levels = push_level pt ~var:i ~first:st.next_id st.levels in
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

let compact ?(metrics = Metrics.ambient) st i =
  check_var "compact" st i;
  compact_gen ~charge:`Direct ~metrics st i

let materialise ?(metrics = Metrics.ambient) st i =
  check_var "materialise" st i;
  compact_gen ~charge:`Materialise ~metrics st i

(* The cost-only kernel: the same scan as [compact], recording the
   scan's pairs in the domain's reused pair table and building nothing.
   Exactness relies on the freshness argument above: the number of
   nodes [compact st i] would create is the number of distinct unelided
   [(lo, hi)] pairs in this scan. *)
let width_if_compacted ?(metrics = Metrics.ambient) st i =
  check_var "width_if_compacted" st i;
  let pt = claim st i in
  Pair_table.count pt st.table;
  let width = Pair_table.width pt in
  Pair_table.release pt;
  Metrics.add_cells metrics (Array.length st.table / 2);
  Metrics.add_probe metrics;
  width

let mincost_if_compacted ?metrics st i =
  st.mincost + width_if_compacted ?metrics st i

let compact_chain st vars =
  Array.fold_left (fun st i -> compact st i) st vars

let width_of_last ~before ~after = after.mincost - before.mincost

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
  st.table.(0)
