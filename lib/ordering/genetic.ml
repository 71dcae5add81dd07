let order_crossover rng p1 p2 =
  let n = Array.length p1 in
  if n = 0 then [||]
  else begin
    let i = Random.State.int rng n in
    let j = Random.State.int rng n in
    let lo = min i j and hi = max i j in
    let child = Array.make n (-1) in
    let taken = Array.make n false in
    for k = lo to hi do
      child.(k) <- p1.(k);
      taken.(p1.(k)) <- true
    done;
    let fill = ref 0 in
    Array.iter
      (fun v ->
        if not taken.(v) then begin
          while !fill >= lo && !fill <= hi do
            incr fill
          done;
          child.(!fill) <- v;
          incr fill
        end)
      p2;
    child
  end

let population = 16
let generations = 24
let mutation_rate = 0.3

let run ?(metrics = Ovo_core.Metrics.create ())
    ?(kind = Ovo_core.Compact.Bdd) ~rng mt =
  let n = Ovo_boolfun.Mtable.arity mt in
  let chain = Chain.create ~metrics ~kind mt in
  let individual order = (Chain.price chain order, order) in
  let pool =
    ref
      (Array.init population (fun i ->
           individual (if i = 0 then Perm.identity n else Perm.random rng n)))
  in
  let by_cost (c1, _) (c2, _) = compare c1 c2 in
  Array.sort by_cost !pool;
  let tournament () =
    let pick () = !pool.(Random.State.int rng population) in
    let a = pick () and b = pick () in
    if fst a <= fst b then snd a else snd b
  in
  for _ = 1 to generations do
    let next = Array.make population !pool.(0) (* elitism: keep the best *) in
    for slot = 1 to population - 1 do
      let child = order_crossover rng (tournament ()) (tournament ()) in
      let child =
        if n > 1 && Random.State.float rng 1. < mutation_rate then
          Perm.move child ~from:(Random.State.int rng n)
            ~to_:(Random.State.int rng n)
        else child
      in
      next.(slot) <- individual child
    done;
    Array.sort by_cost next;
    pool := next
  done;
  let mincost, order = !pool.(0) in
  { Chain.mincost; order }
