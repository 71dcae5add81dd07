type result = {
  mincost : int;
  size : int;
  order : int array;
  widths : int array;
  diagram : Diagram.t;
}

let of_state (st : Compact.state) =
  let diagram = Diagram.of_state st in
  {
    mincost = st.Compact.mincost;
    size = Diagram.size diagram;
    order = Array.of_list (Compact.order st);
    widths = Diagram.level_widths diagram;
    diagram;
  }

let run_mtable ?(trace = Ovo_obs.Trace.null) ?(kind = Compact.Bdd) ?engine
    ?cancel ?metrics ?membudget ?prune ?on_layer ?resume mt =
  let base = Compact.initial kind mt in
  Ovo_obs.Trace.with_span trace ~cat:"fs"
    ~args:(fun () ->
      [ ("n", Ovo_obs.Json.Int (Ovo_boolfun.Mtable.arity mt)) ])
    "fs.run"
    (fun () ->
      let st =
        Subset_dp.complete ~trace ?engine ?cancel ?metrics ?membudget ?prune
          ?on_layer ?resume ~base (Compact.free base)
      in
      let r = of_state st in
      (* a pruned solve is exact only under a sound seed; an exact cost
         above the seeded upper bound proves the provider lied *)
      Option.iter (fun b -> Bound.check_final b r.mincost) prune;
      r)

let run ?trace ?kind ?engine ?cancel ?metrics ?membudget ?prune ?on_layer
    ?resume tt =
  run_mtable ?trace ?kind ?engine ?cancel ?metrics ?membudget ?prune ?on_layer
    ?resume
    (Ovo_boolfun.Mtable.of_truthtable tt)

let all_mincosts ?(trace = Ovo_obs.Trace.null) ?(kind = Compact.Bdd) ?engine
    ?cancel ?metrics tt =
  let base = Compact.of_truthtable kind tt in
  Ovo_obs.Trace.with_span trace ~cat:"fs" "fs.all_mincosts" (fun () ->
      let table =
        Subset_dp.costs ~trace ?engine ?cancel ?metrics ~base
          (Compact.free base)
      in
      let n = Ovo_boolfun.Truthtable.arity tt in
      let all = Hashtbl.create (1 lsl n) in
      for i_set = 0 to Varset.full n do
        Hashtbl.replace all i_set (Subset_dp.mincost table i_set)
      done;
      all)

let read_first_order r =
  let n = Array.length r.order in
  Array.init n (fun i -> r.order.(n - 1 - i))
