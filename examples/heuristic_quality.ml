(* Judging heuristics with the exact optimum — the use-case the paper
   gives for theoretically sound exact methods (Sec. 1.1): run sifting,
   window permutation and random search over the benchmark catalogue and
   report each heuristic's size ratio to the FS optimum.

   Run with:  dune exec examples/heuristic_quality.exe *)

let () =
  let rng = Random.State.make [| 20260706 |] in
  let catalogue = Ovo_boolfun.Families.catalogue ~max_arity:10 in
  Format.printf "Heuristic quality versus the exact optimum (ratio 1.00 = optimal):@.@.";
  List.iter
    (fun (name, tt) ->
      let report = Ovo_ordering.Quality.evaluate ~rng ~name tt in
      Format.printf "%a@." Ovo_ordering.Quality.pp_report report)
    catalogue;
  (* the hybrid exact-block pass usually closes the remaining gap *)
  Format.printf "@.Exact-block hybrid (FS* windows of 4) on the same functions:@.@.";
  List.iter
    (fun (name, tt) ->
      let exact = (Ovo_core.Fs.run tt).Ovo_core.Fs.mincost in
      let hybrid =
        Ovo_ordering.Exact_block.run ~block:4 (Ovo_boolfun.Mtable.of_truthtable tt)
      in
      Format.printf "%-16s exact=%-5d exact-block=%d@." name exact
        hybrid.Ovo_ordering.Chain.mincost)
    catalogue
