module T = Ovo_boolfun.Truthtable

let influences tt =
  let size = float_of_int (T.size tt) in
  Array.init (T.arity tt) (fun j ->
      float_of_int (T.count_ones (T.xor tt (T.flip tt j))) /. size)

let run ?metrics ?kind tt =
  let n = Ovo_boolfun.Truthtable.arity tt in
  let inf = influences tt in
  let by_influence =
    List.sort
      (fun (_, a) (_, b) -> compare (a : float) b)
      (List.init n (fun j -> (j, inf.(j))))
  in
  (* ascending influence = read last first, i.e. high influence at root *)
  let order = Array.of_list (List.map fst by_influence) in
  { Chain.mincost = Ovo_core.Eval_order.mincost ?metrics ?kind tt order; order }
