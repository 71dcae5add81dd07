let samples = 100

let run ?(metrics = Ovo_core.Metrics.create ())
    ?(kind = Ovo_core.Compact.Bdd) ~rng mt =
  let n = Ovo_boolfun.Mtable.arity mt in
  let chain = Chain.create ~metrics ~kind mt in
  let best = ref (Chain.result chain) in
  for _ = 1 to samples do
    let cand = Perm.random rng n in
    let c = Chain.price chain cand in
    if c < !best.mincost then best := { mincost = c; order = cand }
  done;
  !best
