(* The paper's Fig. 1 motivation, end to end: the "Achilles heel"
   function x0·x1 + x2·x3 + … is linear-sized under the natural ordering
   and exponential under the interleaved one; exact optimisation recovers
   the linear size from the bad starting point, and we also watch how the
   heuristics cope.

   Run with:  dune exec examples/ordering_blowup.exe *)

module F = Ovo_boolfun.Families
module E = Ovo_core.Eval_order

let () =
  Format.printf
    "pairs  n   natural   interleaved   2n+2   2^(n+1)   exact   sifting@.";
  for pairs = 1 to 6 do
    let tt = F.achilles pairs in
    let n = 2 * pairs in
    let good = E.size tt (F.achilles_good_order pairs) in
    let bad = E.size tt (F.achilles_bad_order pairs) in
    let exact = (Ovo_core.Fs.run tt).Ovo_core.Fs.size in
    (* start sifting from the *bad* ordering to make it work for a living *)
    let sift =
      Ovo_ordering.Sifting.run ~initial:(F.achilles_bad_order pairs)
        (Ovo_boolfun.Mtable.of_truthtable tt)
    in
    let sift_size = E.size tt sift.Ovo_ordering.Chain.order in
    Format.printf "%5d %3d %9d %13d %6d %9d %7d %9d@." pairs n good bad
      (n + 2)
      (1 lsl (pairs + 1))
      exact sift_size
  done;
  Format.printf
    "@.The gap grows as 2^(n/2+1)/(2n+2); already at n = 12 the bad ordering@.";
  Format.printf
    "is an order of magnitude larger — the paper's case for ordering search.@."
