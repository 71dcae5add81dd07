type result = { mincost : int; order : int array; probes : int }

let samples = 100

let run_mtable ?(metrics = Ovo_core.Metrics.create ())
    ?(kind = Ovo_core.Compact.Bdd) ~rng mt =
  let n = Ovo_boolfun.Mtable.arity mt in
  let chain = Chain.create ~metrics ~kind mt in
  let best_order = ref (Chain.order chain) in
  let best_cost = ref (Chain.cost chain) in
  for _ = 1 to samples do
    let cand = Perm.random rng n in
    let c = Chain.price chain cand in
    if c < !best_cost then begin
      best_cost := c;
      best_order := cand
    end
  done;
  { mincost = !best_cost; order = !best_order; probes = samples + 1 }

let run ?metrics ?kind ~rng tt =
  run_mtable ?metrics ?kind ~rng (Ovo_boolfun.Mtable.of_truthtable tt)
