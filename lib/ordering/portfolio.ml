let run ?(trace = Ovo_obs.Trace.null) ?(metrics = Ovo_core.Metrics.create ())
    ?(kind = Ovo_core.Compact.Bdd) ?rng ?(extra = []) tt =
  let rng = match rng with Some r -> r | None -> Random.State.make [| 0x0BDD |] in
  let mt = Ovo_boolfun.Mtable.of_truthtable tt in
  (* each member gets its own span so the profile shows where portfolio
     time goes; sifting and window additionally thread the tracer down
     for their improvement instants *)
  let member (name, f) =
    let result = ref None in
    Ovo_obs.Trace.with_span trace ~cat:"heur"
      ~args:(fun () ->
        ("method", Ovo_obs.Json.String name)
        :: (match !result with
           | None -> []
           | Some (r : Chain.result) -> [ ("mincost", Ovo_obs.Json.Int r.mincost) ]))
      (Printf.sprintf "portfolio.%s" name)
      (fun () ->
        let r = f () in
        result := Some r;
        (name, r))
  in
  (* injected members come first: they are the cheap static ones
     (layers above register the learn scorer here without ordering ever
     depending on it) *)
  let members =
    List.map (fun (name, f) -> (name, fun () -> f ~metrics tt)) extra
    @ [
        ("influence", fun () -> Influence.run ~metrics ~kind tt);
        ("sifting", fun () -> Sifting.run ~trace ~metrics ~kind mt);
        ("window", fun () -> Window.run ~trace ~metrics ~kind mt);
        ("annealing", fun () -> Annealing.run ~metrics ~kind ~rng mt);
        ("genetic", fun () -> Genetic.run ~metrics ~kind ~rng mt);
        ("random", fun () -> Random_search.run ~metrics ~kind ~rng mt);
        ("exact-block", fun () -> Exact_block.run ~metrics ~kind mt);
      ]
  in
  (* the last member runs first, so the shared RNG feeds random, then
     genetic, then annealing; ties keep the listed order *)
  List.fold_right (fun m acc -> member m :: acc) members []
  |> List.stable_sort (fun (_, (a : Chain.result)) (_, b) ->
         compare a.mincost b.mincost)
