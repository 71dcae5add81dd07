module P = Ovo_ordering.Portfolio
module B = Ovo_bdd.Bdd
module T = Ovo_boolfun.Truthtable
module E = Ovo_boolfun.Expr

let unit_tests =
  [
    Helpers.case "portfolio lists every member, best first" (fun () ->
        let entries = P.run (Ovo_boolfun.Families.multiplexer ~select:2) in
        Helpers.check_int "members" 7 (List.length entries);
        let costs = List.map (fun (_, r) -> r.Ovo_ordering.Chain.mincost) entries in
        Helpers.check_bool "sorted" true (costs = List.sort compare costs));
    Helpers.case "cube cover of a single cube" (fun () ->
        let man = B.create 3 in
        let f = B.of_expr man (E.of_string "x0 & !x2") in
        Alcotest.(check (list (list (pair int bool))))
          "one cube"
          [ [ (0, true); (2, false) ] ]
          (B.cube_cover man f));
    Helpers.case "cube cover of constants" (fun () ->
        let man = B.create 2 in
        Alcotest.(check (list (list (pair int bool))))
          "false" [] (B.cube_cover man (B.bfalse man));
        Alcotest.(check (list (list (pair int bool))))
          "true" [ [] ]
          (B.cube_cover man (B.btrue man)));
    Helpers.case "to_expr of xor is a 2-cube DNF" (fun () ->
        let man = B.create 2 in
        let f = B.of_expr man (E.of_string "x0 ^ x1") in
        Helpers.check_int "cubes" 2 (List.length (B.cube_cover man f)));
  ]

let props =
  [
    QCheck.Test.make ~name:"portfolio is sound and honest" ~count:40
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:5 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let _, best = List.hd (P.run ~rng:(Helpers.rng seed) tt) in
        let exact = (Ovo_core.Fs.run tt).Ovo_core.Fs.mincost in
        best.Ovo_ordering.Chain.mincost >= exact
        && Ovo_core.Eval_order.mincost tt best.order = best.mincost);
    QCheck.Test.make
      ~name:"portfolio never loses to any individual member" ~count:40
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:5 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let entries = P.run ~rng:(Helpers.rng seed) tt in
        let best = (snd (List.hd entries)).Ovo_ordering.Chain.mincost in
        List.for_all (fun (_, r) -> best <= r.Ovo_ordering.Chain.mincost) entries);
    QCheck.Test.make ~name:"to_expr round-trips the function" ~count:150
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        let man = B.create (T.arity tt) in
        let f = B.of_truthtable man tt in
        T.equal (E.to_truthtable ~arity:(T.arity tt) (B.to_expr man f)) tt);
    QCheck.Test.make ~name:"cube cover is disjoint and exact" ~count:150
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        let n = T.arity tt in
        let man = B.create n in
        let cover = B.cube_cover man (B.of_truthtable man tt) in
        let matches cube code =
          List.for_all
            (fun (v, b) -> (code land (1 lsl v) <> 0) = b)
            cube
        in
        let ok = ref true in
        for code = 0 to (1 lsl n) - 1 do
          let hits = List.length (List.filter (fun c -> matches c code) cover) in
          (* exactly one cube on the on-set, none on the off-set *)
          if T.eval tt code then (if hits <> 1 then ok := false)
          else if hits <> 0 then ok := false
        done;
        !ok);
    QCheck.Test.make
      ~name:"cover size is bounded by satcount and by 1-paths" ~count:100
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        let man = B.create (T.arity tt) in
        let f = B.of_truthtable man tt in
        List.length (B.cube_cover man f) <= T.count_ones tt);
  ]

let () =
  Alcotest.run "portfolio_cover"
    [ ("unit", unit_tests); ("props", Helpers.qtests props) ]
