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

(* A level has at most 2^(n-1) nodes, so once Σ_h w_h · 2^(n-1) fits in
   an int no objective, lower bound or incumbent of the sweep can wrap.
   The sum is compared against max_int / 2^(n-1) term by term, so the
   check itself cannot overflow. *)
let check_weights ~n weights =
  if Array.length weights <> n then invalid_arg "Fs.run: bad weights";
  Array.iter
    (fun w -> if w < 0 then invalid_arg "Fs.run: negative weight")
    weights;
  let cap = max_int asr (max 0 (n - 1)) in
  ignore
    (Array.fold_left
       (fun sum w ->
         if w > cap - sum then invalid_arg "Fs.run: weights too large";
         sum + w)
       0 weights)

let run_mtable ?(trace = Ovo_obs.Trace.null) ?(kind = Compact.Bdd) ?engine
    ?cancel ?metrics ?membudget ?prune ?weights ?on_layer ?resume mt =
  let n = Ovo_boolfun.Mtable.arity mt in
  Option.iter (check_weights ~n) weights;
  let weights = Option.map Array.copy weights in
  let base = Compact.initial kind mt in
  Ovo_obs.Trace.with_span trace ~cat:"fs"
    ~args:(fun () -> [ ("n", Ovo_obs.Json.Int n) ])
    "fs.run"
    (fun () ->
      let st =
        Subset_dp.complete ~trace ?engine ?cancel ?metrics ?membudget ?prune
          ?weights ?on_layer ?resume ~base (Compact.free base)
      in
      let cost =
        match weights with
        | None -> st.Compact.mincost
        | Some weights -> Compact.weighted_cost ~weights st
      in
      (* a pruned solve is exact only under a sound seed; an exact cost
         above the seeded upper bound proves the provider lied *)
      Option.iter (fun b -> Bound.check_final b cost) prune;
      of_state st)

let run ?trace ?kind ?engine ?cancel ?metrics ?membudget ?prune ?weights
    ?on_layer ?resume tt =
  run_mtable ?trace ?kind ?engine ?cancel ?metrics ?membudget ?prune ?weights
    ?on_layer ?resume
    (Ovo_boolfun.Mtable.of_truthtable tt)

let read_first_order r =
  let n = Array.length r.order in
  Array.init n (fun i -> r.order.(n - 1 - i))
