let run ?(metrics = Ovo_core.Metrics.create ())
    ?(kind = Ovo_core.Compact.Bdd) ?(block = 4) ?initial mt =
  let n = Ovo_boolfun.Mtable.arity mt in
  let w = max 2 (min block (max n 2)) in
  let w = min w n in
  let chain = Chain.create ~metrics ~kind ?initial mt in
  let sweeps = ref 0 in
  let improved = ref true in
  while !improved && !sweeps < 8 do
    incr sweeps;
    improved := false;
    for start = 0 to n - w do
      let order = Chain.order chain in
      (* state of the levels below the window *)
      let base = Chain.prefix chain start in
      let window_vars =
        Ovo_core.Varset.of_list (Array.to_list (Array.sub order start w))
      in
      (* exact DP over the window (Lemma 8) *)
      let st = Ovo_core.Subset_dp.complete ~metrics ~base window_vars in
      (* the suborder achieved by the optimal state, window part only *)
      let block =
        Array.sub (Array.of_list (Ovo_core.Compact.order st)) start w
      in
      if Chain.price_window chain ~start block < Chain.cost chain then begin
        Array.blit block 0 order start w;
        Chain.accept chain order;
        improved := true
      end
    done
  done;
  Chain.result chain
