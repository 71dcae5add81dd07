type entry = { method_name : string; mincost : int; order : int array }

type result = { best : entry; entries : entry list }

let run ?(trace = Ovo_obs.Trace.null) ?(metrics = Ovo_core.Metrics.create ())
    ?(kind = Ovo_core.Compact.Bdd) ?rng ?(extra = []) tt =
  let rng = match rng with Some r -> r | None -> Random.State.make [| 0x0BDD |] in
  (* each member gets its own span so the profile shows where portfolio
     time goes; sifting and window additionally thread the tracer down
     for their improvement instants *)
  let member name f =
    let entry = ref None in
    Ovo_obs.Trace.with_span trace ~cat:"heur"
      ~args:(fun () ->
        match !entry with
        | None -> [ ("method", Ovo_obs.Json.String name) ]
        | Some e ->
            [
              ("method", Ovo_obs.Json.String name);
              ("mincost", Ovo_obs.Json.Int e.mincost);
            ])
      (Printf.sprintf "portfolio.%s" name)
      (fun () ->
        let e = f () in
        entry := Some e;
        e)
  in
  let members =
    (* injected members run first: they are the cheap static ones
       (layers above register the learn scorer here without ordering
       ever depending on it) *)
    List.map (fun (name, f) -> member name (fun () -> f tt)) extra
    @ [
      member "influence" (fun () ->
          let r = Influence.run ~metrics ~kind tt in
          { method_name = "influence"; mincost = r.Influence.mincost; order = r.Influence.order });
      member "sifting" (fun () ->
          let r = Sifting.run ~trace ~metrics ~kind tt in
          { method_name = "sifting"; mincost = r.Sifting.mincost; order = r.Sifting.order });
      member "window" (fun () ->
          let r = Window.run ~trace ~metrics ~kind tt in
          { method_name = "window"; mincost = r.Window.mincost; order = r.Window.order });
      member "annealing" (fun () ->
          let r = Annealing.run ~metrics ~kind ~rng tt in
          { method_name = "annealing"; mincost = r.Annealing.mincost; order = r.Annealing.order });
      member "genetic" (fun () ->
          let r = Genetic.run ~metrics ~kind ~rng tt in
          { method_name = "genetic"; mincost = r.Genetic.mincost; order = r.Genetic.order });
      member "random" (fun () ->
          let r = Random_search.run ~metrics ~kind ~rng tt in
          { method_name = "random"; mincost = r.Random_search.mincost; order = r.Random_search.order });
      member "exact-block" (fun () ->
          let r = Exact_block.run ~metrics ~kind tt in
          { method_name = "exact-block"; mincost = r.Exact_block.mincost; order = r.Exact_block.order });
    ]
  in
  let sorted =
    List.sort (fun a b -> compare a.mincost b.mincost) members
  in
  match sorted with
  | [] -> assert false
  | best :: _ -> { best; entries = sorted }
