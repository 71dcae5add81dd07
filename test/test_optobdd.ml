module O = Ovo_quantum.Opt_obdd
module P = Ovo_quantum.Params
module Fs = Ovo_core.Fs
module C = Ovo_core.Compact
module T = Ovo_boolfun.Truthtable

let minimize ?(ctx = O.make_ctx ()) ?kind sub tt =
  O.minimize ?kind ~ctx sub (Ovo_boolfun.Mtable.of_truthtable tt)

let unit_tests =
  [
    Helpers.case "theorem10 equals FS on a known function" (fun () ->
        let tt = Ovo_boolfun.Families.hidden_weighted_bit 6 in
        let r, cost = minimize (O.theorem10 ()) tt in
        Helpers.check_int "mincost" 21 r.Fs.mincost;
        Helpers.check_bool "cost positive" true (cost > 0.));
    Helpers.case "params tables are well-formed" (fun () ->
        for k = 1 to 6 do
          let alpha = P.table1_alpha k in
          Helpers.check_int "length" k (Array.length alpha);
          Array.iteri
            (fun i a ->
              Helpers.check_bool "in (0,1)" true (a > 0. && a < 1.);
              if i > 0 then
                Helpers.check_bool "nondecreasing" true (a >= alpha.(i - 1)))
            alpha
        done;
        Helpers.check_bool "gammas decrease" true
          (P.table1_gamma 6 < P.table1_gamma 1);
        Helpers.check_bool "final below classical" true
          (P.final_gamma < P.classical_gamma));
    Helpers.case "invalid parameters rejected" (fun () ->
        Alcotest.check_raises "length"
          (Invalid_argument "Opt_obdd.opt_obdd: |alpha| <> k") (fun () ->
            ignore (O.opt_obdd ~k:2 ~alpha:[| 0.3 |] O.fs_star));
        Alcotest.check_raises "range"
          (Invalid_argument "Opt_obdd.opt_obdd: alpha not in (0,1) nondecreasing")
          (fun () -> ignore (O.opt_obdd ~k:1 ~alpha:[| 1.2 |] O.fs_star));
        Alcotest.check_raises "depth"
          (Invalid_argument "Opt_obdd.tower: depth out of range") (fun () ->
            ignore (O.tower ~depth:11)));
    Helpers.case "tower depth-1 label chains" (fun () ->
        Helpers.check_bool "gamma1" true (O.name (O.tower ~depth:1) = "Gamma_1");
        Helpers.check_bool "gamma3" true (O.name (O.tower ~depth:3) = "Gamma_3"));
    Helpers.case "modeled cost is function-independent" (fun () ->
        (* the accounting depends only on table sizes, never on content *)
        let st = Helpers.rng 3 in
        let n = 6 in
        let costs =
          List.init 5 (fun _ ->
              let tt = T.random st n in
              snd (minimize (O.theorem10 ()) tt))
        in
        match costs with
        | [] -> assert false
        | c :: rest ->
            List.iter (fun c' -> Alcotest.(check (float 1e-6)) "same" c c') rest);
    Helpers.case "modeled cost grows with n" (fun () ->
        let st = Helpers.rng 4 in
        let cost n = snd (minimize (O.theorem10 ()) (T.random st n)) in
        let c5 = cost 5 and c8 = cost 8 in
        Helpers.check_bool "monotone" true (c8 > c5));
    Helpers.case "fs_star subroutine is the classical composition" (fun () ->
        let tt = Ovo_boolfun.Families.multiplexer ~select:2 in
        let r, cost = minimize O.fs_star tt in
        Helpers.check_int "mincost" (Fs.run tt).Fs.mincost r.Fs.mincost;
        (* the classical cost is the exact cell count n·3^(n-1) *)
        Alcotest.(check (float 0.5))
          "cells" (Ovo_numerics.Predict.fs_cells 6) cost);
    Helpers.case "zdd minimisation through the quantum path" (fun () ->
        let tt = Ovo_boolfun.Families.achilles 3 in
        let r, _ = minimize ~kind:C.Zdd (O.theorem10 ()) tt in
        Helpers.check_int "mincost" (Fs.run ~kind:C.Zdd tt).Fs.mincost
          r.Fs.mincost);
    Helpers.case "stats record searches and queries" (fun () ->
        let ctx = O.make_ctx () in
        let tt = Ovo_boolfun.Families.parity 7 in
        let _ = minimize ~ctx (O.theorem10 ()) tt in
        Helpers.check_bool "searched" true
          (ctx.O.stats.Ovo_quantum.Qsearch.searches > 0);
        Helpers.check_bool "queries accounted" true
          (ctx.O.stats.Ovo_quantum.Qsearch.modeled_queries > 0.));
  ]

let predictor_tests =
  [
    Helpers.case "analytic predictor equals simulated modeled cost" (fun () ->
        let eps = Float.pow 2. (-20.) in
        for n = 2 to 8 do
          let tt = T.random (Helpers.rng n) n in
          let ctx = O.make_ctx () in
          let _, sim = minimize ~ctx (O.theorem10 ()) tt in
          let pred =
            Ovo_numerics.Predict.theorem10_cost ~epsilon:eps
              ~alpha:(P.table1_alpha 6) n
          in
          Alcotest.(check (float 1e-6)) (Printf.sprintf "t10 n=%d" n) pred sim;
          let ctx2 = O.make_ctx () in
          let _, sim2 = minimize ~ctx:ctx2 (O.tower ~depth:2) tt in
          let pred2 =
            Ovo_numerics.Predict.tower_cost ~epsilon:eps
              ~alphas:[| P.table2_alpha 0; P.table2_alpha 1 |]
              ~depth:2 n
          in
          Alcotest.(check (float 1e-6)) (Printf.sprintf "tower n=%d" n) pred2 sim2
        done);
    Helpers.case "predictor crossover: OptOBDD(6) beats FS at large n" (fun () ->
        let eps n = Float.pow 2. (-.float_of_int n) in
        let fs = Ovo_numerics.Predict.fs_cells 40 in
        let q =
          Ovo_numerics.Predict.theorem10_cost ~epsilon:(eps 40)
            ~alpha:(P.table1_alpha 6) 40
        in
        Helpers.check_bool "q < fs at n=40" true (q < fs));
  ]

let props =
  [
    QCheck.Test.make ~name:"theorem10 matches FS (BDD)" ~count:40
      (Helpers.arb_truthtable ~lo:2 ~hi:6 ())
      (fun tt ->
        let r, _ = minimize (O.theorem10 ()) tt in
        r.Fs.mincost = (Fs.run tt).Fs.mincost
        && Ovo_core.Diagram.check_tt r.Fs.diagram tt);
    QCheck.Test.make ~name:"tower depth 2 matches FS" ~count:25
      (Helpers.arb_truthtable ~lo:2 ~hi:6 ())
      (fun tt ->
        let r, _ = minimize (O.tower ~depth:2) tt in
        r.Fs.mincost = (Fs.run tt).Fs.mincost);
    QCheck.Test.make ~name:"tower depth 3 matches FS on small n" ~count:10
      (Helpers.arb_truthtable ~lo:2 ~hi:5 ())
      (fun tt ->
        let r, _ = minimize (O.tower ~depth:3) tt in
        r.Fs.mincost = (Fs.run tt).Fs.mincost);
    QCheck.Test.make ~name:"theorem10 matches FS (ZDD)" ~count:25
      (Helpers.arb_truthtable ~lo:2 ~hi:5 ())
      (fun tt ->
        let r, _ = minimize ~kind:C.Zdd (O.theorem10 ()) tt in
        r.Fs.mincost = (Fs.run ~kind:C.Zdd tt).Fs.mincost);
    QCheck.Test.make
      ~name:"with injected errors the diagram is always valid (Theorem 1)"
      ~count:60
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:5 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let ctx = O.make_ctx ~rng:(Helpers.rng seed) ~epsilon:0.4 () in
        let r, _ = minimize ~ctx (O.theorem10 ()) tt in
        Ovo_core.Diagram.check_tt r.Fs.diagram tt
        && r.Fs.mincost >= (Fs.run tt).Fs.mincost
        && Ovo_core.Eval_order.mincost tt r.Fs.order = r.Fs.mincost);
    QCheck.Test.make ~name:"multi-terminal quantum minimisation" ~count:20
      (Helpers.arb_mtable ~lo:2 ~hi:4 ~values:3 ())
      (fun mt ->
        let ctx = O.make_ctx () in
        let r, _ = O.minimize ~ctx (O.theorem10 ()) mt in
        r.Fs.mincost = (Fs.run_mtable mt).Fs.mincost
        && Ovo_core.Diagram.check r.Fs.diagram mt);
  ]

let () =
  Alcotest.run "optobdd"
    [
      ("unit", unit_tests);
      ("predictor", predictor_tests);
      ("props", Helpers.qtests props);
    ]
