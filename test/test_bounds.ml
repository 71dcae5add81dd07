module B = Ovo_core.Bounds
module T = Ovo_boolfun.Truthtable
module Fs = Ovo_core.Fs
module C = Ovo_core.Compact

(* The counting lower bound of {!Ovo_core.Bound} before any variable is
   placed: one node per variable the function depends on. *)
let counting ?(kind = C.Bdd) tt =
  (Ovo_core.Bound.counting_lower kind (Ovo_boolfun.Mtable.of_truthtable tt))
    .Ovo_core.Bound.remaining
    (Ovo_core.Varset.full (T.arity tt))

let unit_tests =
  [
    Helpers.case "small level caps by hand" (fun () ->
        (* n = 3: level 1 -> min(4, 2·1) = 2; level 2 -> min(2, 4·3) = 2;
           level 3 -> min(1, 16·15) = 1 *)
        Alcotest.(check (float 0.)) "l1" 2. (B.max_width ~n:3 ~level:1);
        Alcotest.(check (float 0.)) "l2" 2. (B.max_width ~n:3 ~level:2);
        Alcotest.(check (float 0.)) "l3" 1. (B.max_width ~n:3 ~level:3);
        Alcotest.(check (float 0.)) "nodes" 5. (B.max_nodes 3);
        Alcotest.(check (float 0.)) "size" 7. (B.max_size 3));
    Helpers.case "level out of range rejected" (fun () ->
        Alcotest.check_raises "zero" (Invalid_argument "Bounds.max_width")
          (fun () -> ignore (B.max_width ~n:3 ~level:0)));
    Helpers.case "the n = 3 cap is tight (exhaustive)" (fun () ->
        (* some 3-variable function reaches 5 non-terminal nodes *)
        let worst = ref 0 in
        for bits = 0 to 255 do
          let tt = T.of_fun 3 (fun code -> bits land (1 lsl code) <> 0) in
          let c = (Fs.run tt).Fs.mincost in
          if c > !worst then worst := c
        done;
        Helpers.check_int "worst optimum" 5 !worst);
    Helpers.case "the n = 4 cap is not exceeded and nearly reached" (fun () ->
        let st = Helpers.rng 4 in
        let worst = ref 0 in
        for _ = 1 to 500 do
          let tt = T.random st 4 in
          let c = (Fs.run tt).Fs.mincost in
          if c > !worst then worst := c
        done;
        Helpers.check_bool "within cap" true
          (float_of_int !worst <= B.max_nodes 4);
        (* random sampling should reach at least cap - 2 at n = 4 *)
        Helpers.check_bool "near cap" true
          (float_of_int !worst >= B.max_nodes 4 -. 2.));
    Helpers.case "worst-case caps grow like 2^n / n eventually" (fun () ->
        (* the restriction cap dominates high levels, the dependence cap
           the low ones; overall max_nodes n < 2^(n+1) for all small n *)
        for n = 1 to 20 do
          Helpers.check_bool "below 2^(n+1)" true
            (B.max_nodes n < Float.pow 2. (float_of_int (n + 1)))
        done);
    Helpers.case "support lower bound on conjunctions is exact" (fun () ->
        (* x0 & x1 & ... & xk needs exactly one node per variable *)
        for n = 1 to 6 do
          let tt = T.of_fun n (fun code -> code = (1 lsl n) - 1) in
          Helpers.check_int "conjunction" n (counting tt);
          Helpers.check_int "optimal equals bound" n (Fs.run tt).Fs.mincost
        done);
    Helpers.case "size lower bound of constants" (fun () ->
        (* no node, and the one reachable terminal *)
        let tt = T.const 4 true in
        Helpers.check_int "nodes" 0 (counting tt);
        Helpers.check_int "const" 1 (Fs.run tt).Fs.size);
  ]

let props =
  [
    QCheck.Test.make ~name:"every optimal profile respects the caps"
      ~count:150
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        let r = Fs.run tt in
        B.check_widths ~n:(T.arity tt) r.Fs.widths);
    QCheck.Test.make ~name:"every random-order profile respects the caps"
      ~count:150
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let order = Helpers.perm_of_seed seed (T.arity tt) in
        B.check_widths ~n:(T.arity tt)
          (Ovo_core.Eval_order.widths tt order));
    QCheck.Test.make ~name:"lower bounds never exceed the optimum" ~count:150
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        let r = Fs.run tt and lb = counting tt in
        let terminals = if T.is_const tt = None then 2 else 1 in
        lb <= r.Fs.mincost
        && lb + terminals <= r.Fs.size
        && counting ~kind:C.Zdd tt <= (Fs.run ~kind:C.Zdd tt).Fs.mincost);
    QCheck.Test.make ~name:"optimum never exceeds the worst-case cap"
      ~count:150
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        float_of_int (Fs.run tt).Fs.mincost <= B.max_nodes (T.arity tt));
  ]

let () =
  Alcotest.run "bounds" [ ("unit", unit_tests); ("props", Helpers.qtests props) ]
