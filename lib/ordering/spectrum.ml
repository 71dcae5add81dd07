type t = {
  n : int;
  min_cost : int;
  max_cost : int;
  mean : float;
  optimal_orderings : int;
  total_orderings : int;
  histogram : (int * int) list;
}

let compute ?(kind = Ovo_core.Compact.Bdd) tt =
  let n = Ovo_boolfun.Truthtable.arity tt in
  if n > 8 then invalid_arg "Spectrum.compute: arity above limit";
  let base =
    Ovo_core.Compact.initial kind (Ovo_boolfun.Mtable.of_truthtable tt)
  in
  let metrics = Ovo_core.Metrics.create () in
  let counts = Hashtbl.create 32 in
  let total = ref 0 and sum = ref 0 in
  Perm.iter_all n (fun order ->
      let c =
        (Ovo_core.Compact.compact_chain ~metrics base order)
          .Ovo_core.Compact.mincost
      in
      incr total;
      sum := !sum + c;
      Hashtbl.replace counts c
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)));
  let histogram =
    Hashtbl.fold (fun cost count acc -> (cost, count) :: acc) counts []
    |> List.sort compare
  in
  match histogram with
  | [] -> invalid_arg "Spectrum.compute: empty spectrum"
  | (min_cost, optimal_orderings) :: _ ->
      let max_cost = fst (List.nth histogram (List.length histogram - 1)) in
      {
        n;
        min_cost;
        max_cost;
        mean = float_of_int !sum /. float_of_int !total;
        optimal_orderings;
        total_orderings = !total;
        histogram;
      }

let optimal_fraction s =
  float_of_int s.optimal_orderings /. float_of_int s.total_orderings

let pp ppf s =
  Format.fprintf ppf
    "n=%d orderings=%d min=%d (%.1f%% optimal) mean=%.1f max=%d" s.n
    s.total_orderings s.min_cost
    (100. *. optimal_fraction s)
    s.mean s.max_cost
