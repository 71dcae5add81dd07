let run ?(trace = Ovo_obs.Trace.null)
    ?(metrics = Ovo_core.Metrics.create ()) ?(kind = Ovo_core.Compact.Bdd)
    ?(window = 3) ?initial mt =
  let n = Ovo_boolfun.Mtable.arity mt in
  let w = max 2 (min window n) in
  let cells0 = metrics.Ovo_core.Metrics.table_cells in
  let chain = Chain.create ~metrics ~kind ?initial mt in
  let probes = ref 1 in
  let sweeps = ref 0 in
  let improved = ref true in
  Ovo_obs.Trace.with_span trace ~cat:"heur"
    ~args:(fun () ->
      [
        ("n", Ovo_obs.Json.Int n);
        ("window", Ovo_obs.Json.Int w);
        ("sweeps", Ovo_obs.Json.Int !sweeps);
        ("probes", Ovo_obs.Json.Int !probes);
        ("mincost", Ovo_obs.Json.Int (Chain.cost chain));
        ( "table_cells",
          Ovo_obs.Json.Int (metrics.Ovo_core.Metrics.table_cells - cells0) );
      ])
    "window.run"
  @@ fun () ->
  while !improved && !sweeps < 16 do
    incr sweeps;
    improved := false;
    for start = 0 to n - w do
      let order = Chain.order chain in
      let best_cost = ref (Chain.cost chain) and best_block = ref [||] in
      Perm.iter_all w (fun sub ->
          incr probes;
          let block = Array.map (fun s -> order.(start + s)) sub in
          let c = Chain.price_window chain ~start block in
          if c < !best_cost then begin
            best_cost := c;
            best_block := block
          end);
      if !best_cost < Chain.cost chain then begin
        Ovo_obs.Trace.instant trace ~cat:"heur"
          ~args:(fun () ->
            [
              ("sweep", Ovo_obs.Json.Int !sweeps);
              ("start", Ovo_obs.Json.Int start);
              ("from", Ovo_obs.Json.Int (Chain.cost chain));
              ("to", Ovo_obs.Json.Int !best_cost);
            ])
          "window.improve";
        Array.blit !best_block 0 order start w;
        Chain.accept chain order;
        improved := true
      end
    done
  done;
  Chain.result chain
