let run ?(metrics = Ovo_core.Metrics.create ())
    ?(kind = Ovo_core.Compact.Bdd) ?initial ~rng mt =
  let n = Ovo_boolfun.Mtable.arity mt in
  let chain = Chain.create ~metrics ~kind ?initial mt in
  let best = ref (Chain.result chain) in
  let temperature = ref 5.0 in
  if n > 1 then
    for _ = 1 to 400 do
      let from = Random.State.int rng n in
      let to_ = Random.State.int rng n in
      if from <> to_ then begin
        let c = Chain.price_move chain ~from ~to_ in
        let delta = float_of_int (c - Chain.cost chain) in
        let accept =
          delta <= 0.
          || Random.State.float rng 1. < exp (-.delta /. Float.max !temperature 1e-9)
        in
        if accept then begin
          Chain.accept chain (Perm.move (Chain.order chain) ~from ~to_);
          if c < !best.mincost then best := Chain.result chain
        end
      end;
      temperature := !temperature *. 0.97
    done;
  !best
