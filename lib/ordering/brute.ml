let best ?(metrics = Ovo_core.Metrics.create ())
    ?(kind = Ovo_core.Compact.Bdd) mt =
  let n = Ovo_boolfun.Mtable.arity mt in
  if n > 9 then invalid_arg "Brute.best: arity above limit";
  let base = Ovo_core.Compact.initial kind mt in
  let best = ref { Chain.mincost = max_int; order = Perm.identity n } in
  Perm.iter_all n (fun p ->
      let st = Ovo_core.Compact.compact_chain ~metrics base p in
      if st.Ovo_core.Compact.mincost < !best.mincost then
        best := { mincost = st.Ovo_core.Compact.mincost; order = Array.copy p });
  !best
