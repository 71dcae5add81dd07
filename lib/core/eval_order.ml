let check_permutation n order =
  if Array.length order <> n then invalid_arg "Eval_order: wrong length";
  let seen = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then
        invalid_arg "Eval_order: not a permutation";
      seen.(v) <- true)
    order

let state_mtable ?(metrics = Metrics.create ()) ?(kind = Compact.Bdd) mt order
    =
  check_permutation (Ovo_boolfun.Mtable.arity mt) order;
  Compact.compact_chain ~metrics (Compact.initial kind mt) order

let state ?metrics ?kind tt order =
  state_mtable ?metrics ?kind (Ovo_boolfun.Mtable.of_truthtable tt) order

let mincost ?metrics ?kind tt order = (state ?metrics ?kind tt order).Compact.mincost

let diagram ?metrics ?kind tt order =
  Diagram.of_state (state ?metrics ?kind tt order)

let size ?metrics ?kind tt order = Diagram.size (diagram ?metrics ?kind tt order)

let widths ?metrics ?kind tt order =
  Diagram.level_widths (diagram ?metrics ?kind tt order)

let read_first order =
  let n = Array.length order in
  Array.init n (fun i -> order.(n - 1 - i))
