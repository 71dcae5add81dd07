module Sp = Ovo_ordering.Spectrum
module Inf = Ovo_ordering.Influence
module T = Ovo_boolfun.Truthtable
module F = Ovo_boolfun.Families

let unit_tests =
  [
    Helpers.case "spectrum of a symmetric function is a point mass" (fun () ->
        let s = Sp.compute (F.majority 5) in
        Helpers.check_int "min=max" s.Sp.min_cost s.Sp.max_cost;
        Alcotest.(check (float 1e-9)) "all optimal" 1.0 (Sp.optimal_fraction s);
        Helpers.check_int "120 orderings" 120 s.Sp.total_orderings);
    Helpers.case "achilles spectrum spans linear to exponential" (fun () ->
        let s = Sp.compute (F.achilles 3) in
        Helpers.check_int "min" 6 s.Sp.min_cost;
        Helpers.check_int "max" 14 s.Sp.max_cost;
        Helpers.check_bool "optimum is rare" true (Sp.optimal_fraction s < 0.2);
        Helpers.check_bool "mean strictly between" true
          (s.Sp.mean > 6. && s.Sp.mean < 14.));
    Helpers.case "spectrum histogram accounts for every ordering" (fun () ->
        let s = Sp.compute (F.multiplexer ~select:2) in
        Helpers.check_int "sums to n!" s.Sp.total_orderings
          (List.fold_left (fun acc (_, c) -> acc + c) 0 s.Sp.histogram));
    Helpers.case "spectrum refuses big arities" (fun () ->
        Alcotest.check_raises "limit"
          (Invalid_argument "Spectrum.compute: arity above limit") (fun () ->
            ignore (Sp.compute (F.parity 9))));
    Helpers.case "influence of parity is 1 everywhere" (fun () ->
        let inf = Inf.influences (F.parity 4) in
        Array.iter (fun x -> Alcotest.(check (float 1e-9)) "1" 1.0 x) inf);
    Helpers.case "influence of a single variable" (fun () ->
        let inf = Inf.influences (T.var 3 1) in
        Alcotest.(check (float 1e-9)) "x1" 1.0 inf.(1);
        Alcotest.(check (float 1e-9)) "x0" 0.0 inf.(0);
        Alcotest.(check (float 1e-9)) "x2" 0.0 inf.(2));
    Helpers.case "influence of AND is 1/2^(n-1)" (fun () ->
        let tt = T.of_fun 3 (fun code -> code = 7) in
        let inf = Inf.influences tt in
        Array.iter (fun x -> Alcotest.(check (float 1e-9)) "1/4" 0.25 x) inf);
    Helpers.case "influence ordering places the mux selector high" (fun () ->
        (* for mux the address bits have the highest influence and the
           heuristic's root variable should be one of them *)
        let tt = F.multiplexer ~select:2 in
        let { Ovo_ordering.Chain.order; _ } = Inf.run tt in
        let root = order.(Array.length order - 1) in
        Helpers.check_bool "root is an address bit" true (root = 0 || root = 1));
  ]

let props =
  [
    QCheck.Test.make ~name:"spectrum min equals the FS optimum" ~count:40
      (Helpers.arb_truthtable ~lo:1 ~hi:5 ())
      (fun tt ->
        (Sp.compute tt).Sp.min_cost = (Ovo_core.Fs.run tt).Ovo_core.Fs.mincost);
    QCheck.Test.make ~name:"spectrum mean within [min, max]" ~count:40
      (Helpers.arb_truthtable ~lo:1 ~hi:5 ())
      (fun tt ->
        let s = Sp.compute tt in
        s.Sp.mean >= float_of_int s.Sp.min_cost
        && s.Sp.mean <= float_of_int s.Sp.max_cost);
    QCheck.Test.make ~name:"influences equal the per-bit flip count"
      ~count:100
      (Helpers.arb_truthtable ~lo:1 ~hi:10 ())
      (fun tt ->
        let size = T.size tt in
        Inf.influences tt
        = Array.init (T.arity tt) (fun j ->
              let flips = ref 0 in
              for code = 0 to size - 1 do
                if T.eval tt code <> T.eval tt (code lxor (1 lsl j)) then
                  incr flips
              done;
              float_of_int !flips /. float_of_int size));
    QCheck.Test.make ~name:"influences vanish exactly off the support"
      ~count:100
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        let inf = Inf.influences tt in
        let support = T.support tt in
        Array.for_all
          (fun j -> List.mem j support = (inf.(j) > 0.))
          (Array.init (T.arity tt) (fun j -> j)));
    QCheck.Test.make ~name:"influence heuristic is sound and honest" ~count:60
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        let { Ovo_ordering.Chain.mincost; order } = Inf.run tt in
        mincost >= (Ovo_core.Fs.run tt).Ovo_core.Fs.mincost
        && Ovo_core.Eval_order.mincost tt order = mincost);
    QCheck.Test.make ~name:"simple_split (Sec 3.1) equals FS" ~count:30
      (Helpers.arb_truthtable ~lo:2 ~hi:6 ())
      (fun tt ->
        let ctx = Ovo_quantum.Opt_obdd.make_ctx () in
        let r, _ =
          Ovo_quantum.Opt_obdd.minimize ~ctx
            (Ovo_quantum.Opt_obdd.simple_split ())
            (Ovo_boolfun.Mtable.of_truthtable tt)
        in
        r.Ovo_core.Fs.mincost = (Ovo_core.Fs.run tt).Ovo_core.Fs.mincost);
  ]

let () =
  Alcotest.run "spectrum_influence"
    [ ("unit", unit_tests); ("props", Helpers.qtests props) ]
