type result = {
  weighted_cost : int;
  mincost : int;
  order : int array;
  diagram : Diagram.t;
}

(* A compaction state paired with its weighted objective; the Subset_dp
   functor then minimises the weighted cost directly.  The cost pass
   prices a candidate as w_i · width without building it. *)
module Weighted_state = struct
  type state = {
    inner : Compact.state;
    weights : int array;
    wcost : int;
  }

  let materialise ~metrics st i =
    let next = Compact.materialise ~metrics st.inner i in
    let width = Compact.width_of_last ~before:st.inner ~after:next in
    { st with inner = next; wcost = st.wcost + (st.weights.(i) * width) }

  let mincost st = st.wcost
  let free st = Compact.free st.inner
  let next_id st = st.inner.Compact.next_id
  let cells st = Fs_star.State.cells st.inner
  let load st = Compact.load st.inner

  let probe ~metrics ~base src r ~bit ~next_id =
    Fs_star.State.probe ~metrics ~base:base.inner src r ~bit ~next_id

  let write ~metrics ~base src r dst dr ~bit ~next_id =
    Fs_star.State.write ~metrics ~base:base.inner src r dst dr ~bit ~next_id

  let step_cost ~base _ i ~width = base.weights.(i) * width
end

module Dp = Subset_dp.Make (Weighted_state)

let run_mtable ?(trace = Ovo_obs.Trace.null) ?(kind = Compact.Bdd) ?engine
    ?cancel ?metrics ?membudget ?prune ~weights mt =
  let n = Ovo_boolfun.Mtable.arity mt in
  if Array.length weights <> n then invalid_arg "Fs_weighted.run: bad weights";
  Array.iter
    (fun w -> if w < 0 then invalid_arg "Fs_weighted.run: negative weight")
    weights;
  let base =
    {
      Weighted_state.inner = Compact.initial kind mt;
      weights = Array.copy weights;
      wcost = 0;
    }
  in
  let st =
    Ovo_obs.Trace.with_span trace ~cat:"fs"
      ~args:(fun () -> [ ("n", Ovo_obs.Json.Int n) ])
      "fs_weighted.run"
      (fun () ->
        Dp.complete ~trace ?engine ?cancel ?metrics ?membudget ?prune ~base
          (Compact.free base.Weighted_state.inner))
  in
  Option.iter
    (fun b -> Bound.check_final b st.Weighted_state.wcost)
    prune;
  let inner = st.Weighted_state.inner in
  {
    weighted_cost = st.Weighted_state.wcost;
    mincost = inner.Compact.mincost;
    order = Array.of_list (Compact.order inner);
    diagram = Diagram.of_state inner;
  }

let run ?trace ?kind ?engine ?cancel ?metrics ?membudget ?prune ~weights tt =
  run_mtable ?trace ?kind ?engine ?cancel ?metrics ?membudget ?prune ~weights
    (Ovo_boolfun.Mtable.of_truthtable tt)
