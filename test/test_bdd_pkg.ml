module B = Ovo_bdd.Bdd
module T = Ovo_boolfun.Truthtable
module E = Ovo_boolfun.Expr

let unit_tests =
  [
    Helpers.case "constants and canonicity" (fun () ->
        let man = B.create 3 in
        Helpers.check_bool "false is false" true (B.is_false man (B.bfalse man));
        Helpers.check_bool "true is true" true (B.is_true man (B.btrue man));
        Helpers.check_bool "x & !x = false" true
          (B.equal
             (B.and_ man (B.var man 1) (B.not_ man (B.var man 1)))
             (B.bfalse man));
        Helpers.check_bool "x | !x = true" true
          (B.equal
             (B.or_ man (B.var man 1) (B.not_ man (B.var man 1)))
             (B.btrue man)));
    Helpers.case "hash-consing: same function, same node" (fun () ->
        let man = B.create 4 in
        let a = B.of_expr man (E.of_string "x0 & x1 | x2") in
        let b =
          B.or_ man
            (B.and_ man (B.var man 0) (B.var man 1))
            (B.var man 2)
        in
        Helpers.check_bool "equal handles" true (B.equal a b));
    Helpers.case "ite laws" (fun () ->
        let man = B.create 3 in
        let f = B.of_expr man (E.of_string "x0 ^ x1") in
        let g = B.var man 2 in
        Helpers.check_bool "ite(1,g,h)" true
          (B.equal (B.ite man (B.btrue man) f g) f);
        Helpers.check_bool "ite(0,g,h)" true
          (B.equal (B.ite man (B.bfalse man) f g) g);
        Helpers.check_bool "ite(f,1,0)" true
          (B.equal (B.ite man f (B.btrue man) (B.bfalse man)) f));
    Helpers.case "restrict by label" (fun () ->
        let man = B.create 3 in
        let f = B.of_expr man (E.of_string "x0 & x1 | !x0 & x2") in
        Helpers.check_bool "f|x0=1 = x1" true
          (B.equal (B.restrict man f ~var:0 true) (B.var man 1));
        Helpers.check_bool "f|x0=0 = x2" true
          (B.equal (B.restrict man f ~var:0 false) (B.var man 2)));
    Helpers.case "quantifiers" (fun () ->
        let man = B.create 3 in
        let f = B.of_expr man (E.of_string "x0 & x1") in
        Helpers.check_bool "exists x0" true
          (B.equal (B.exists man [ 0 ] f) (B.var man 1));
        Helpers.check_bool "forall x0" true
          (B.equal (B.forall man [ 0 ] f) (B.bfalse man));
        Helpers.check_bool "exists both" true
          (B.equal (B.exists man [ 0; 1 ] f) (B.btrue man)));
    Helpers.case "support" (fun () ->
        let man = B.create 5 in
        let f = B.of_expr man (E.of_string "x0 & x3 | x0 & !x3") in
        (* simplifies to x0 *)
        Alcotest.(check (list int)) "support" [ 0 ] (B.support man f));
    Helpers.case "satcount and sat_one" (fun () ->
        let man = B.create 4 in
        let f = B.of_expr man (E.of_string "x0 & !x2") in
        Alcotest.(check (float 0.001)) "count" 4. (B.satcount man f);
        (match B.sat_one man f with
        | None -> Alcotest.fail "expected sat"
        | Some assignment ->
            let code =
              List.fold_left
                (fun acc (v, b) -> if b then acc lor (1 lsl v) else acc)
                0 assignment
            in
            Helpers.check_bool "assignment satisfies" true (B.eval man f code));
        Alcotest.(check (option (list (pair int bool))))
          "unsat" None
          (B.sat_one man (B.bfalse man)));
    Helpers.case "custom ordering changes size but not semantics" (fun () ->
        let tt = Ovo_boolfun.Families.achilles 3 in
        let good = B.create ~order:[| 0; 1; 2; 3; 4; 5 |] 6 in
        let bad = B.create ~order:[| 0; 2; 4; 1; 3; 5 |] 6 in
        let bg = B.of_truthtable good tt and bb = B.of_truthtable bad tt in
        Helpers.check_int "good size" 8 (B.size good bg);
        Helpers.check_int "bad size" 16 (B.size bad bb);
        Helpers.check_bool "same function" true
          (T.equal (B.to_truthtable good bg) (B.to_truthtable bad bb)));
    Helpers.case "create rejects bad orders" (fun () ->
        Alcotest.check_raises "dup"
          (Invalid_argument "Bdd.create: order is not a permutation") (fun () ->
            ignore (B.create ~order:[| 0; 0 |] 2)));
    Helpers.case "import rejects mismatched ordering" (fun () ->
        let tt = T.of_string "0110" in
        let r = Ovo_core.Fs.run tt in
        let man = B.create ~order:(Ovo_core.Fs.read_first_order r) 2 in
        let ok = B.import man r.Ovo_core.Fs.diagram in
        Helpers.check_bool "imported" true
          (T.equal (B.to_truthtable man ok) tt);
        (* a manager with the reversed ordering must refuse when orders
           disagree; build one whose order differs *)
        let other_order =
          let o = Ovo_core.Fs.read_first_order r in
          if Array.length o = 2 then [| o.(1); o.(0) |] else o
        in
        let man2 = B.create ~order:other_order 2 in
        (match B.import man2 r.Ovo_core.Fs.diagram with
        | _ -> Alcotest.fail "expected mismatch"
        | exception Invalid_argument _ -> ()));
    Helpers.case "to_dot mentions terminals" (fun () ->
        let man = B.create 2 in
        let f = B.of_expr man (E.of_string "x0 ^ x1") in
        let dot = B.to_dot man f in
        Helpers.check_bool "has digraph" true
          (String.length dot > 20 && String.sub dot 0 7 = "digraph"));
  ]

let binop_prop name tt_op bdd_op =
  QCheck.Test.make ~name ~count:150
    (QCheck.pair
       (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
       (Helpers.arb_truthtable ~lo:1 ~hi:6 ()))
    (fun (a, b) ->
      QCheck.assume (T.arity a = T.arity b);
      let man = B.create (T.arity a) in
      let ba = B.of_truthtable man a and bb = B.of_truthtable man b in
      T.equal (B.to_truthtable man (bdd_op man ba bb)) (tt_op a b))

let props =
  [
    QCheck.Test.make ~name:"of_truthtable/to_truthtable round trip" ~count:200
      (Helpers.arb_truthtable ~lo:1 ~hi:7 ())
      (fun tt ->
        let man = B.create (T.arity tt) in
        T.equal (B.to_truthtable man (B.of_truthtable man tt)) tt);
    binop_prop "and matches tables" T.( &&& ) B.and_;
    binop_prop "or matches tables" T.( ||| ) B.or_;
    binop_prop "xor matches tables" T.xor B.xor_;
    binop_prop "iff is negated xor"
      (fun a b -> T.not_ (T.xor a b))
      B.iff;
    binop_prop "imp matches tables"
      (fun a b -> T.( ||| ) (T.not_ a) b)
      B.imp;
    QCheck.Test.make ~name:"of_expr agrees with Expr.to_truthtable" ~count:200
      (Helpers.arb_expr ~vars:5 ())
      (fun e ->
        let n = max 1 (E.max_var e + 1) in
        let man = B.create n in
        T.equal
          (B.to_truthtable man (B.of_expr man e))
          (E.to_truthtable ~arity:n e));
    QCheck.Test.make ~name:"satcount equals count_ones" ~count:200
      (Helpers.arb_truthtable ~lo:1 ~hi:7 ())
      (fun tt ->
        let man = B.create (T.arity tt) in
        int_of_float (B.satcount man (B.of_truthtable man tt))
        = T.count_ones tt);
    QCheck.Test.make ~name:"size under ordering equals Eval_order size"
      ~count:150
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let pi = Helpers.perm_of_seed seed n in
        let man = B.create ~order:(Ovo_core.Eval_order.read_first pi) n in
        B.size man (B.of_truthtable man tt) = Ovo_core.Eval_order.size tt pi);
    QCheck.Test.make ~name:"import preserves function and size" ~count:100
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        let r = Ovo_core.Fs.run tt in
        let man =
          B.create ~order:(Ovo_core.Fs.read_first_order r) (T.arity tt)
        in
        let b = B.import man r.Ovo_core.Fs.diagram in
        T.equal (B.to_truthtable man b) tt
        && B.size man b = r.Ovo_core.Fs.size);
    QCheck.Test.make
      ~name:"of_truthtable is the handle of_expr builds, under any order"
      ~count:150
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let man = B.create ~order:(Helpers.perm_of_seed seed n) n in
        B.equal (B.of_truthtable man tt)
          (B.of_expr man (E.dnf_of_truthtable tt)));
    QCheck.Test.make ~name:"compose_var agrees with pointwise substitution"
      ~count:120
      (QCheck.triple
         (Helpers.arb_truthtable ~lo:2 ~hi:5 ())
         (Helpers.arb_truthtable ~lo:2 ~hi:5 ())
         QCheck.small_int)
      (fun (f_tt, g_tt, seed) ->
        QCheck.assume (T.arity f_tt = T.arity g_tt);
        let n = T.arity f_tt in
        let v = Random.State.int (Helpers.rng seed) n in
        let man = B.create n in
        let f = B.of_truthtable man f_tt and g = B.of_truthtable man g_tt in
        let composed = B.compose_var man f ~var:v g in
        let expect =
          T.of_fun n (fun code ->
              let forced =
                if T.eval g_tt code then code lor (1 lsl v)
                else code land lnot (1 lsl v)
              in
              T.eval f_tt forced)
        in
        T.equal (B.to_truthtable man composed) expect);
    QCheck.Test.make ~name:"restrict agrees with table restrict" ~count:150
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let st = Helpers.rng seed in
        let v = Random.State.int st n in
        let b = Random.State.bool st in
        let man = B.create n in
        let f = B.of_truthtable man tt in
        let restricted = B.restrict man f ~var:v b in
        (* compare as n-variable functions (the table version renumbers) *)
        let expect =
          T.of_fun n (fun code ->
              let forced =
                if b then code lor (1 lsl v) else code land lnot (1 lsl v)
              in
              T.eval tt forced)
        in
        T.equal (B.to_truthtable man restricted) expect);
  ]

let () =
  Alcotest.run "bdd_pkg"
    [ ("unit", unit_tests); ("props", Helpers.qtests props) ]
