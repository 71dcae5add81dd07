type state = Compact.state

let initial kind mts =
  if Array.length mts = 0 then invalid_arg "Shared.initial: need at least one root";
  let n = Ovo_boolfun.Mtable.arity mts.(0) in
  let num_terminals = Ovo_boolfun.Mtable.num_values mts.(0) in
  Array.iter
    (fun mt ->
      if Ovo_boolfun.Mtable.arity mt <> n then
        invalid_arg "Shared.initial: arity mismatch";
      if Ovo_boolfun.Mtable.num_values mt <> num_terminals then
        invalid_arg "Shared.initial: value alphabet mismatch")
    mts;
  Compact.of_mtables kind mts

let require_complete name st =
  if not (Compact.is_complete st) then
    invalid_arg (Printf.sprintf "Shared.%s: state not complete" name)

(* A complete state's table holds one cell per root: the root's id. *)
let roots (st : state) =
  require_complete "roots" st;
  Array.copy st.table

(* One view per root over one node store; node ids, and hence sharing,
   are the state's. *)
let diagrams (st : state) =
  require_complete "diagrams" st;
  let nodes =
    Array.make (st.next_id - st.num_terminals)
      { Diagram.var = -1; Diagram.lo = 0; Diagram.hi = 0 }
  in
  Compact.iter_nodes
    (fun id ~var ~lo ~hi -> nodes.(id - st.num_terminals) <- { Diagram.var; lo; hi })
    st.levels;
  let order = Array.of_list (Compact.order st) in
  Array.map
    (fun root ->
      Diagram.of_parts ~kind:st.kind ~n:st.n ~num_terminals:st.num_terminals
        ~order ~nodes ~root)
    st.table

let check st mts =
  let views = diagrams st in
  Array.length mts = Array.length views && Array.for_all2 Diagram.check views mts

type result = { mincost : int; size : int; order : int array; state : state }

let reachable_terminals (st : state) =
  let seen = Array.make st.num_terminals false in
  Array.iter (fun root -> if root < st.num_terminals then seen.(root) <- true) st.table;
  Compact.iter_nodes
    (fun _ ~var:_ ~lo ~hi ->
      if lo < st.num_terminals then seen.(lo) <- true;
      if hi < st.num_terminals then seen.(hi) <- true)
    st.levels;
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen

let of_state (st : state) =
  require_complete "of_state" st;
  {
    mincost = st.mincost;
    size = st.mincost + reachable_terminals st;
    order = Array.of_list (Compact.order st);
    state = st;
  }

let minimize ?(trace = Ovo_obs.Trace.null) ?(kind = Compact.Bdd) ?engine
    ?metrics mts =
  let base = initial kind mts in
  Ovo_obs.Trace.with_span trace ~cat:"fs"
    ~args:(fun () ->
      [
        ("n", Ovo_obs.Json.Int base.n);
        ("roots", Ovo_obs.Json.Int (Array.length mts));
      ])
    "shared.minimize"
    (fun () ->
      of_state
        (Subset_dp.complete ~trace ?engine ?metrics ~base (Compact.free base)))

let to_dot (st : state) =
  require_complete "to_dot" st;
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
    (fun i root ->
      Buffer.add_string buf
        (Printf.sprintf "  r%d [shape=plaintext,label=\"f%d\"];\n" i i);
      Buffer.add_string buf (Printf.sprintf "  r%d -> n%d;\n" i root))
    st.table;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
