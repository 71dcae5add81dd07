type node = { var : int; lo : int; hi : int }

type t = {
  n : int;
  kind : Compact.kind;
  num_terminals : int;
  root : int;
  order : int array;
  nodes : node array;
}

let of_state (st : Compact.state) =
  if not (Compact.is_complete st) then
    invalid_arg "Diagram.of_state: state not complete";
  let count = st.next_id - st.num_terminals in
  let nodes = Array.make count { var = -1; lo = 0; hi = 0 } in
  Compact.iter_nodes
    (fun id ~var ~lo ~hi -> nodes.(id - st.num_terminals) <- { var; lo; hi })
    st.levels;
  {
    n = st.n;
    kind = st.kind;
    num_terminals = st.num_terminals;
    root = Compact.root st;
    order = Array.of_list (Compact.order st);
    nodes;
  }

let node_count d = Array.length d.nodes

let is_terminal d u = u < d.num_terminals

let reachable_terminals d =
  let seen = Array.make d.num_terminals false in
  if is_terminal d d.root then seen.(d.root) <- true;
  Array.iter
    (fun nd ->
      if is_terminal d nd.lo then seen.(nd.lo) <- true;
      if is_terminal d nd.hi then seen.(nd.hi) <- true)
    d.nodes;
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen

let size d = node_count d + reachable_terminals d

let level_widths d =
  let widths = Array.make d.n 0 in
  let level_of_var = Array.make d.n (-1) in
  Array.iteri (fun j v -> level_of_var.(v) <- j) d.order;
  Array.iter
    (fun nd -> widths.(level_of_var.(nd.var)) <- widths.(level_of_var.(nd.var)) + 1)
    d.nodes;
  widths

(* Walk levels from the root (highest) down to 1.  At each level the
   current node either tests that level's variable (follow the edge) or
   skips it; a skipped set variable kills a ZDD path. *)
let eval d code =
  let cur = ref d.root in
  let dead = ref false in
  for level = d.n - 1 downto 0 do
    let v = d.order.(level) in
    let bit = code land (1 lsl v) <> 0 in
    if not !dead then
      if is_terminal d !cur then begin
        match d.kind with
        | Compact.Bdd -> ()
        | Compact.Zdd -> if bit then dead := true
      end
      else
        let nd = d.nodes.(!cur - d.num_terminals) in
        if nd.var = v then cur := (if bit then nd.hi else nd.lo)
        else begin
          match d.kind with
          | Compact.Bdd -> ()
          | Compact.Zdd -> if bit then dead := true
        end
  done;
  if !dead then 0
  else begin
    assert (is_terminal d !cur);
    !cur
  end

let eval_bool d code = eval d code <> 0

let to_mtable d =
  Ovo_boolfun.Mtable.of_fun d.n ~values:d.num_terminals (eval d)

let to_truthtable d =
  if d.num_terminals <> 2 then
    invalid_arg "Diagram.to_truthtable: not a two-terminal diagram";
  Ovo_boolfun.Truthtable.of_fun d.n (eval_bool d)

let check d mt =
  Ovo_boolfun.Mtable.arity mt = d.n
  && Ovo_boolfun.Mtable.num_values mt <= d.num_terminals
  &&
  let ok = ref true in
  for code = 0 to (1 lsl d.n) - 1 do
    if eval d code <> Ovo_boolfun.Mtable.eval mt code then ok := false
  done;
  !ok

let check_tt d tt = check d (Ovo_boolfun.Mtable.of_truthtable tt)

let of_parts ~kind ~n ~num_terminals ~order ~nodes ~root =
  if num_terminals < 1 then failwith "Diagram.of_parts: need a terminal";
  if Array.length order <> n then failwith "Diagram.of_parts: order length";
  let seen = Array.make (max n 1) false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then
        failwith "Diagram.of_parts: order is not a permutation";
      seen.(v) <- true)
    order;
  let max_id = num_terminals + Array.length nodes in
  if root < 0 || root >= max_id then failwith "Diagram.of_parts: bad root";
  let level_of_var = Array.make (max n 1) (-1) in
  Array.iteri (fun j v -> level_of_var.(v) <- j) order;
  Array.iter
    (fun nd ->
      if nd.var < 0 || nd.var >= n then
        failwith "Diagram.of_parts: variable out of range";
      if nd.lo < 0 || nd.lo >= max_id || nd.hi < 0 || nd.hi >= max_id then
        failwith "Diagram.of_parts: dangling child";
      let check_child c =
        if
          c >= num_terminals
          && level_of_var.(nodes.(c - num_terminals).var)
             >= level_of_var.(nd.var)
        then failwith "Diagram.of_parts: edge does not descend"
      in
      check_child nd.lo;
      check_child nd.hi)
    nodes;
  { n; kind; num_terminals; root; order; nodes = Array.copy nodes }

let serialize d =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "ovo-diagram 1\n";
  Buffer.add_string buf
    (Printf.sprintf "kind %s\n"
       (match d.kind with Compact.Bdd -> "bdd" | Compact.Zdd -> "zdd"));
  Buffer.add_string buf (Printf.sprintf "n %d\n" d.n);
  Buffer.add_string buf (Printf.sprintf "terminals %d\n" d.num_terminals);
  Buffer.add_string buf
    (Printf.sprintf "order %s\n"
       (String.concat " " (List.map string_of_int (Array.to_list d.order))));
  Buffer.add_string buf (Printf.sprintf "root %d\n" d.root);
  Buffer.add_string buf (Printf.sprintf "nodes %d\n" (Array.length d.nodes));
  Array.iteri
    (fun i nd ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d %d\n" (i + d.num_terminals) nd.var nd.lo
           nd.hi))
    d.nodes;
  Buffer.contents buf

let deserialize text =
  let fail line msg =
    failwith (Printf.sprintf "Diagram.deserialize: line %d: %s" line msg)
  in
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  let words (lineno, l) =
    ( lineno,
      String.split_on_char ' ' l |> List.filter (fun w -> w <> "") )
  in
  match List.map words lines with
  | (l1, [ "ovo-diagram"; "1" ])
    :: (l2, "kind" :: [ kind_word ])
    :: (_, "n" :: [ n_word ])
    :: (_, "terminals" :: [ t_word ])
    :: (lo_line, "order" :: order_words)
    :: (_, "root" :: [ root_word ])
    :: (lc, "nodes" :: [ count_word ])
    :: node_lines ->
      ignore l1;
      let kind =
        match kind_word with
        | "bdd" -> Compact.Bdd
        | "zdd" -> Compact.Zdd
        | _ -> fail l2 "unknown kind"
      in
      let n = int_of_string n_word in
      let num_terminals = int_of_string t_word in
      if num_terminals < 1 then fail l2 "need at least one terminal";
      let order = Array.of_list (List.map int_of_string order_words) in
      if Array.length order <> n then fail lo_line "order length mismatch";
      let seen = Array.make (max n 1) false in
      Array.iter
        (fun v ->
          if v < 0 || v >= n || seen.(v) then
            fail lo_line "order is not a permutation";
          seen.(v) <- true)
        order;
      let count = int_of_string count_word in
      if List.length node_lines <> count then fail lc "node count mismatch";
      let nodes = Array.make count { var = -1; lo = 0; hi = 0 } in
      let max_id = num_terminals + count in
      List.iteri
        (fun i (lineno, ws) ->
          match List.map int_of_string ws with
          | [ id; var; lo; hi ] ->
              if id <> i + num_terminals then fail lineno "ids must be dense";
              if var < 0 || var >= n then fail lineno "variable out of range";
              if lo < 0 || lo >= max_id || hi < 0 || hi >= max_id then
                fail lineno "dangling child reference";
              nodes.(i) <- { var; lo; hi }
          | _ | (exception Failure _) -> fail lineno "malformed node line")
        node_lines;
      let root = int_of_string root_word in
      if root < 0 || root >= max_id then failwith "Diagram.deserialize: bad root";
      (* ordering sanity: every edge must descend strictly in level *)
      let level_of_var = Array.make (max n 1) (-1) in
      Array.iteri (fun j v -> level_of_var.(v) <- j) order;
      Array.iter
        (fun nd ->
          let check_child c =
            if
              c >= num_terminals
              && level_of_var.(nodes.(c - num_terminals).var)
                 >= level_of_var.(nd.var)
            then failwith "Diagram.deserialize: edge does not descend"
          in
          check_child nd.lo;
          check_child nd.hi)
        nodes;
      { n; kind; num_terminals; root; order; nodes }
  | _ -> failwith "Diagram.deserialize: malformed header"

let to_dot ?(name = "diagram") d =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  Buffer.add_string buf "  rankdir=TB;\n";
  let reachable = Hashtbl.create 16 in
  let rec mark u =
    if not (Hashtbl.mem reachable u) then begin
      Hashtbl.add reachable u ();
      if not (is_terminal d u) then begin
        let nd = d.nodes.(u - d.num_terminals) in
        mark nd.lo;
        mark nd.hi
      end
    end
  in
  mark d.root;
  for t = 0 to d.num_terminals - 1 do
    if Hashtbl.mem reachable t then
      Buffer.add_string buf
        (Printf.sprintf "  n%d [shape=box,label=\"%d\"];\n" t t)
  done;
  Array.iteri
    (fun i nd ->
      let u = i + d.num_terminals in
      if Hashtbl.mem reachable u then begin
        Buffer.add_string buf
          (Printf.sprintf "  n%d [shape=circle,label=\"x%d\"];\n" u nd.var);
        Buffer.add_string buf
          (Printf.sprintf "  n%d -> n%d [style=dashed];\n" u nd.lo);
        Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" u nd.hi)
      end)
    d.nodes;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ppf d =
  let kind = match d.kind with Compact.Bdd -> "bdd" | Compact.Zdd -> "zdd" in
  Format.fprintf ppf "%s(n=%d, size=%d, order=[%s])" kind d.n (size d)
    (String.concat ";" (List.map string_of_int (Array.to_list d.order)))
