type entry = { method_name : string; mincost : int; ratio : float }

type report = {
  fn_name : string;
  arity : int;
  exact : int;
  worst : int;
  entries : entry list;
}

let evaluate ?(kind = Ovo_core.Compact.Bdd) ?rng ~name tt =
  let rng = match rng with Some r -> r | None -> Random.State.make [| 0x0BDD |] in
  let n = Ovo_boolfun.Truthtable.arity tt in
  let exact = (Ovo_core.Fs.run ~kind tt).Ovo_core.Fs.mincost in
  let ratio c =
    if exact = 0 then if c = 0 then 1.0 else infinity
    else float_of_int c /. float_of_int exact
  in
  let mt = Ovo_boolfun.Mtable.of_truthtable tt in
  let sift = Sifting.run ~kind mt in
  let win = Window.run ~kind mt in
  let rand = Random_search.run ~kind ~rng mt in
  let anneal = Annealing.run ~kind ~rng mt in
  let genetic = Genetic.run ~kind ~rng mt in
  (* sample for a pessimistic ordering: max over random probes *)
  let worst = ref 0 in
  for _ = 1 to 50 do
    let c = Ovo_core.Eval_order.mincost ~kind tt (Perm.random rng n) in
    if c > !worst then worst := c
  done;
  let entry name c = { method_name = name; mincost = c; ratio = ratio c } in
  {
    fn_name = name;
    arity = n;
    exact;
    worst = !worst;
    entries =
      [
        entry "sifting" sift.Chain.mincost;
        entry "window-3" win.mincost;
        entry "random-100" rand.mincost;
        entry "annealing" anneal.mincost;
        entry "genetic" genetic.mincost;
      ];
  }

let pp_report ppf r =
  Format.fprintf ppf "%-16s n=%-2d exact=%-5d worst-seen=%-5d" r.fn_name r.arity
    r.exact r.worst;
  List.iter
    (fun e ->
      Format.fprintf ppf "  %s=%d(%.2fx)" e.method_name e.mincost e.ratio)
    r.entries
