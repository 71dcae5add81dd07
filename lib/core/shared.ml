type state = {
  n : int;
  kind : Compact.kind;
  num_terminals : int;
  assigned : Varset.t;
  order_rev : int list;
  tables : int array array;
  levels : Compact.level list;
  mincost : int;
  next_id : int;
}

let initial kind mts =
  let m = Array.length mts in
  if m = 0 then invalid_arg "Shared.initial: need at least one root";
  let n = Ovo_boolfun.Mtable.arity mts.(0) in
  let num_terminals = Ovo_boolfun.Mtable.num_values mts.(0) in
  Array.iter
    (fun mt ->
      if Ovo_boolfun.Mtable.arity mt <> n then
        invalid_arg "Shared.initial: arity mismatch";
      if Ovo_boolfun.Mtable.num_values mt <> num_terminals then
        invalid_arg "Shared.initial: value alphabet mismatch")
    mts;
  {
    n;
    kind;
    num_terminals;
    assigned = Varset.empty;
    order_rev = [];
    tables =
      Array.map (fun mt -> Array.init (1 lsl n) (Ovo_boolfun.Mtable.eval mt)) mts;
    levels = [];
    mincost = 0;
    next_id = num_terminals;
  }

let of_truthtables kind tts =
  initial kind (Array.map Ovo_boolfun.Mtable.of_truthtable tts)

let check_var name st i =
  if i < 0 || i >= st.n then
    invalid_arg (Printf.sprintf "Shared.%s: variable out of range" name);
  if Varset.mem i st.assigned then
    invalid_arg (Printf.sprintf "Shared.%s: variable already assigned" name)

let free st = Varset.diff (Varset.full st.n) st.assigned

(* A claimed pair table for a scan that compacts every root's table of
   [st] w.r.t. [i]: the roots share one pair set, as they share nodes. *)
let claim st i =
  Pair_table.claim
    ~zdd:(match st.kind with Compact.Zdd -> true | Compact.Bdd -> false)
    ~bit:(Varset.rank_in i (free st))
    ~next_id:st.next_id
    ~cells:(Array.length st.tables.(0) / 2 * Array.length st.tables)

(* One compaction across every root's table; the node set — and hence the
   objective — is shared, so a subfunction used by several outputs is
   created and counted once.  As in {!Compact}, no node of [st.levels]
   can be keyed [(i, _, _)] while [i] is free, so dedup only looks at
   this scan's pairs.  [charge] selects the accounting: `Direct prices
   the scan as the theorems do (cells + a compaction); `Materialise
   records only the DP-winner counters, the probe that elected it having
   already paid for the cells. *)
let compact_gen ~charge ~metrics st i =
  let pt = claim st i in
  let tables = Array.map (Pair_table.compact pt) st.tables in
  let width = Pair_table.width pt in
  let levels = Compact.push_level pt ~var:i ~first:st.next_id st.levels in
  Pair_table.release pt;
  Metrics.add_nodes metrics width;
  (match charge with
  | `Direct ->
      Metrics.add_cells metrics (Array.length tables.(0) * Array.length tables);
      Metrics.add_compaction metrics
  | `Materialise -> Metrics.add_state metrics);
  {
    st with
    assigned = Varset.add i st.assigned;
    order_rev = i :: st.order_rev;
    tables;
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

let compact_chain ~metrics st vars =
  Array.fold_left (fun st i -> compact ~metrics st i) st vars

let order st = List.rev st.order_rev
let is_complete st = st.assigned = Varset.full st.n

let roots st =
  if not (is_complete st) then invalid_arg "Shared.roots: state not complete";
  Array.map (fun table -> table.(0)) st.tables

(* The shared node store as an array: node [u] is
   [nodes.(u - num_terminals)]. *)
let nodes st =
  let nodes =
    Array.make (st.next_id - st.num_terminals)
      { Diagram.var = -1; Diagram.lo = 0; Diagram.hi = 0 }
  in
  Compact.iter_nodes
    (fun id ~var ~lo ~hi -> nodes.(id - st.num_terminals) <- { Diagram.var; lo; hi })
    st.levels;
  nodes

(* As Diagram.eval, against the shared node store. *)
let eval st ~root code =
  if not (is_complete st) then invalid_arg "Shared.eval: state not complete";
  if root < 0 || root >= Array.length st.tables then invalid_arg "Shared.eval";
  let nodes = nodes st in
  let order = Array.of_list (order st) in
  let cur = ref st.tables.(root).(0) in
  let dead = ref false in
  for level = st.n - 1 downto 0 do
    let v = order.(level) in
    let bit = code land (1 lsl v) <> 0 in
    if not !dead then
      if !cur < st.num_terminals then begin
        match st.kind with
        | Compact.Bdd -> ()
        | Compact.Zdd -> if bit then dead := true
      end
      else
        let { Diagram.var; lo; hi } = nodes.(!cur - st.num_terminals) in
        if var = v then cur := (if bit then hi else lo)
        else begin
          match st.kind with
          | Compact.Bdd -> ()
          | Compact.Zdd -> if bit then dead := true
        end
  done;
  if !dead then 0 else !cur

let check st mts =
  Array.length mts = Array.length st.tables
  && Array.for_all (fun mt -> Ovo_boolfun.Mtable.arity mt = st.n) mts
  &&
  let ok = ref true in
  Array.iteri
    (fun root mt ->
      for code = 0 to (1 lsl st.n) - 1 do
        if eval st ~root code <> Ovo_boolfun.Mtable.eval mt code then ok := false
      done)
    mts;
  !ok

(* One slice holds every root's table, back to back: the root index
   sits above the free variables' bits of the cell index, so a scan of
   the slice is the roots' scans in turn, sharing one pair set — the
   {!Compact} kernel as it stands. *)
module State = struct
  type nonrec state = state

  let materialise ~metrics st h = materialise ~metrics st h
  let mincost st = st.mincost
  let free = free
  let next_id st = st.next_id
  let cells st = Array.length st.tables.(0) * Array.length st.tables

  let load st (l : Arena.layer) r =
    Array.iteri
      (fun j table ->
        Arena.blit table l ~pos:((r * l.cells) + (j * Array.length table)))
      st.tables

  let probe ~metrics ~base src r ~bit ~next_id =
    Compact.probe ~metrics base.kind src r ~bit ~next_id

  let write ~metrics ~base src r dst dr ~bit ~next_id =
    Compact.write ~metrics base.kind src r dst dr ~bit ~next_id

  let step_cost ~base:_ _ _ ~width = width
end

module Dp = Subset_dp.Make (State)

type result = { mincost : int; size : int; order : int array; state : state }

let reachable_terminals st =
  let seen = Array.make st.num_terminals false in
  Array.iter
    (fun table -> if table.(0) < st.num_terminals then seen.(table.(0)) <- true)
    st.tables;
  Compact.iter_nodes
    (fun _ ~var:_ ~lo ~hi ->
      if lo < st.num_terminals then seen.(lo) <- true;
      if hi < st.num_terminals then seen.(hi) <- true)
    st.levels;
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen

let diagrams st =
  if not (is_complete st) then invalid_arg "Shared.diagrams: state not complete";
  let nodes = nodes st in
  let order = Array.of_list (order st) in
  Array.map
    (fun table ->
      Diagram.of_parts ~kind:st.kind ~n:st.n ~num_terminals:st.num_terminals
        ~order ~nodes ~root:table.(0))
    st.tables

let of_state st =
  if not (is_complete st) then invalid_arg "Shared.of_state: state not complete";
  {
    mincost = st.mincost;
    size = st.mincost + reachable_terminals st;
    order = Array.of_list (order st);
    state = st;
  }

let minimize_mtables ?(trace = Ovo_obs.Trace.null) ?(kind = Compact.Bdd)
    ?engine ?cancel ?metrics ?membudget ?prune mts =
  let base = initial kind mts in
  Ovo_obs.Trace.with_span trace ~cat:"fs"
    ~args:(fun () ->
      [
        ("n", Ovo_obs.Json.Int base.n);
        ("roots", Ovo_obs.Json.Int (Array.length mts));
      ])
    "shared.minimize"
    (fun () ->
      let r =
        of_state
          (Dp.complete ~trace ?engine ?cancel ?metrics ?membudget ?prune ~base
             (free base))
      in
      Option.iter (fun b -> Bound.check_final b r.mincost) prune;
      r)

let minimize ?trace ?kind ?engine ?cancel ?metrics ?membudget ?prune tts =
  minimize_mtables ?trace ?kind ?engine ?cancel ?metrics ?membudget ?prune
    (Array.map Ovo_boolfun.Mtable.of_truthtable tts)

let to_dot st =
  if not (is_complete st) then invalid_arg "Shared.to_dot: state not complete";
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph shared {\n  rankdir=TB;\n";
  for t = 0 to st.num_terminals - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  n%d [shape=box,label=\"%d\"];\n" t t)
  done;
  Compact.iter_nodes
    (fun id ~var ~lo ~hi ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [shape=circle,label=\"x%d\"];\n" id var);
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d [style=dashed];\n" id lo);
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" id hi))
    st.levels;
  Array.iteri
    (fun i table ->
      Buffer.add_string buf
        (Printf.sprintf "  r%d [shape=plaintext,label=\"f%d\"];\n" i i);
      Buffer.add_string buf (Printf.sprintf "  r%d -> n%d;\n" i table.(0)))
    st.tables;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
