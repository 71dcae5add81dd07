let run ?(trace = Ovo_obs.Trace.null)
    ?(metrics = Ovo_core.Metrics.create ()) ?(kind = Ovo_core.Compact.Bdd)
    ?initial mt =
  let n = Ovo_boolfun.Mtable.arity mt in
  let cells0 = metrics.Ovo_core.Metrics.table_cells in
  let chain = Chain.create ~metrics ~kind ?initial mt in
  let probes = ref 1 in
  let passes = ref 0 in
  let improved = ref true in
  Ovo_obs.Trace.with_span trace ~cat:"heur"
    ~args:(fun () ->
      [
        ("n", Ovo_obs.Json.Int n);
        ("passes", Ovo_obs.Json.Int !passes);
        ("probes", Ovo_obs.Json.Int !probes);
        ("mincost", Ovo_obs.Json.Int (Chain.cost chain));
        ( "table_cells",
          Ovo_obs.Json.Int (metrics.Ovo_core.Metrics.table_cells - cells0) );
      ])
    "sift.run"
  @@ fun () ->
  while !improved && !passes < 8 do
    incr passes;
    improved := false;
    (* sift the fattest levels first, per Rudell *)
    let order = Chain.order chain and widths = Chain.widths chain in
    let schedule =
      List.sort
        (fun (_, w1) (_, w2) -> compare w2 w1)
        (List.init n (fun pos -> (order.(pos), widths.(pos))))
    in
    List.iter
      (fun (v, _) ->
        (* current position of v may have shifted during this pass *)
        let order = Chain.order chain in
        let from = ref 0 in
        Array.iteri (fun i x -> if x = v then from := i) order;
        let from = !from in
        let costs = Chain.price_sift chain ~from in
        probes := !probes + n - 1;
        (* the first strictly cheaper target wins, as in a scan upward *)
        let best = ref from in
        Array.iteri (fun target c -> if c < costs.(!best) then best := target) costs;
        if !best <> from then begin
          Ovo_obs.Trace.instant trace ~cat:"heur"
            ~args:(fun () ->
              [
                ("pass", Ovo_obs.Json.Int !passes);
                ("var", Ovo_obs.Json.Int v);
                ("from", Ovo_obs.Json.Int (Chain.cost chain));
                ("to", Ovo_obs.Json.Int costs.(!best));
              ])
            "sift.improve";
          Chain.accept chain (Perm.move order ~from ~to_:!best);
          improved := true
        end)
      schedule
  done;
  Chain.result chain
