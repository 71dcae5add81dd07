type result = { mincost : int; order : int array; evaluated : int }

let best_mtable ?(metrics = Ovo_core.Metrics.create ())
    ?(kind = Ovo_core.Compact.Bdd) mt =
  let n = Ovo_boolfun.Mtable.arity mt in
  if n > 9 then invalid_arg "Brute.best: arity above limit";
  let base = Ovo_core.Compact.initial kind mt in
  let best_cost = ref max_int and best_order = ref (Perm.identity n) in
  let evaluated = ref 0 in
  Perm.iter_all n (fun p ->
      incr evaluated;
      let st = Ovo_core.Compact.compact_chain ~metrics base p in
      if st.Ovo_core.Compact.mincost < !best_cost then begin
        best_cost := st.Ovo_core.Compact.mincost;
        best_order := Array.copy p
      end);
  { mincost = !best_cost; order = !best_order; evaluated = !evaluated }

let best ?metrics ?kind tt =
  best_mtable ?metrics ?kind (Ovo_boolfun.Mtable.of_truthtable tt)
