type result = {
  weighted_cost : int;
  mincost : int;
  order : int array;
  diagram : Diagram.t;
}

(* A level has at most 2^(n-1) nodes, so once Σ_h w_h · 2^(n-1) fits in
   an int no objective, lower bound or incumbent of the sweep can wrap.
   The sum is compared against max_int / 2^(n-1) term by term, so the
   check itself cannot overflow. *)
let check_weights ~n weights =
  if Array.length weights <> n then invalid_arg "Fs_weighted.run: bad weights";
  Array.iter
    (fun w -> if w < 0 then invalid_arg "Fs_weighted.run: negative weight")
    weights;
  let cap = max_int asr (max 0 (n - 1)) in
  ignore
    (Array.fold_left
       (fun sum w ->
         if w > cap - sum then invalid_arg "Fs_weighted.run: weights too large";
         sum + w)
       0 weights)

let run_mtable ?(trace = Ovo_obs.Trace.null) ?(kind = Compact.Bdd) ?engine
    ?cancel ?metrics ?membudget ?prune ~weights mt =
  let n = Ovo_boolfun.Mtable.arity mt in
  check_weights ~n weights;
  let weights = Array.copy weights in
  let base = Compact.initial kind mt in
  let st =
    Ovo_obs.Trace.with_span trace ~cat:"fs"
      ~args:(fun () -> [ ("n", Ovo_obs.Json.Int n) ])
      "fs_weighted.run"
      (fun () ->
        Subset_dp.complete ~trace ?engine ?cancel ?metrics ?membudget ?prune
          ~weights ~base (Compact.free base))
  in
  let weighted_cost = Compact.weighted_cost ~weights st in
  Option.iter (fun b -> Bound.check_final b weighted_cost) prune;
  {
    weighted_cost;
    mincost = st.Compact.mincost;
    order = Array.of_list (Compact.order st);
    diagram = Diagram.of_state st;
  }

let run ?trace ?kind ?engine ?cancel ?metrics ?membudget ?prune ~weights tt =
  run_mtable ?trace ?kind ?engine ?cancel ?metrics ?membudget ?prune ~weights
    (Ovo_boolfun.Mtable.of_truthtable tt)
