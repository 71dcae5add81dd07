module D = Ovo_bdd.Bdd
module T = Ovo_boolfun.Truthtable
module F = Ovo_boolfun.Families

let build tt =
  let man = D.create (T.arity tt) in
  let b = D.of_truthtable man tt in
  D.protect man b;
  (man, b)

let unit_tests =
  [
    Helpers.case "one swap preserves semantics and flips the order" (fun () ->
        let tt = F.multiplexer ~select:2 in
        let man, b = build tt in
        D.swap_levels man 2;
        Alcotest.(check (array int)) "order" [| 0; 1; 3; 2; 4; 5 |]
          (D.order man);
        Helpers.check_bool "same function" true
          (T.equal (D.to_truthtable man b) tt);
        Helpers.check_bool "invariants" true (D.check_invariants man));
    Helpers.case "swap is an involution" (fun () ->
        let tt = F.hidden_weighted_bit 5 in
        let man, b = build tt in
        let before = D.live_size man in
        D.swap_levels man 1;
        D.swap_levels man 1;
        Helpers.check_int "size restored" before (D.live_size man);
        Alcotest.(check (array int)) "order restored" [| 0; 1; 2; 3; 4 |]
          (D.order man);
        Helpers.check_bool "function" true (T.equal (D.to_truthtable man b) tt));
    Helpers.case "swap bounds checked" (fun () ->
        let man, _ = build (F.parity 3) in
        Alcotest.check_raises "last" (Invalid_argument "Bdd.swap_levels")
          (fun () -> D.swap_levels man 2));
    Helpers.case "set_order reaches the achilles good ordering" (fun () ->
        let tt = F.achilles 3 in
        let man = D.create ~order:[| 0; 2; 4; 1; 3; 5 |] 6 in
        let b = D.of_truthtable man tt in
        D.protect man b;
        Helpers.check_int "bad size first" 16 (D.live_size man);
        D.set_order man [| 0; 1; 2; 3; 4; 5 |];
        Helpers.check_int "good size after" 8 (D.live_size man);
        Helpers.check_bool "function" true (T.equal (D.to_truthtable man b) tt);
        Helpers.check_bool "invariants" true (D.check_invariants man));
    Helpers.case "sifting rescues the achilles bad ordering" (fun () ->
        let tt = F.achilles 4 in
        let man = D.create ~order:[| 0; 2; 4; 6; 1; 3; 5; 7 |] 8 in
        let b = D.of_truthtable man tt in
        D.protect man b;
        Helpers.check_int "bad" 32 (D.live_size man);
        D.sift man;
        Helpers.check_int "optimal" 10 (D.live_size man);
        Helpers.check_bool "function" true (T.equal (D.to_truthtable man b) tt));
    Helpers.case "sifting several roots at once" (fun () ->
        let man = D.create 6 in
        let outputs =
          Array.init 4 (fun j ->
              T.of_fun 6 (fun code ->
                  ((code land 7) + (code lsr 3)) land (1 lsl j) <> 0))
        in
        let handles = Array.map (D.of_truthtable man) outputs in
        Array.iter (D.protect man) handles;
        D.sift man;
        (* the exact shared optimum is 22 incl. terminals (see
           test_shared); sifting must land at or above it and keep all
           functions intact *)
        Helpers.check_bool "at least the shared optimum" true
          (D.live_size man >= 22);
        (* sifting is a heuristic; it lands near but not at the shared
           optimum here (27 vs 22 from the identity start) *)
        Helpers.check_bool "close to it" true (D.live_size man <= 30);
        Array.iteri
          (fun j h ->
            Helpers.check_bool
              (Printf.sprintf "output %d intact" j)
              true
              (T.equal (D.to_truthtable man h) outputs.(j)))
          handles);
    Helpers.case "apply works after reordering (caches stay valid)" (fun () ->
        let man = D.create 4 in
        let a = D.of_truthtable man (T.var 4 0) in
        let b = D.of_truthtable man (T.var 4 3) in
        let f = D.and_ man a b in
        D.protect man f;
        D.set_order man [| 3; 2; 1; 0 |];
        let g = D.or_ man f (D.var man 1) in
        let expect =
          T.( ||| ) (T.( &&& ) (T.var 4 0) (T.var 4 3)) (T.var 4 1)
        in
        Helpers.check_bool "post-reorder apply" true
          (T.equal (D.to_truthtable man g) expect));
  ]

let gc_tests =
  [
    Helpers.case "compress keeps protected functions intact" (fun () ->
        let tt = F.hidden_weighted_bit 6 in
        let man, b = build tt in
        (* generate garbage: walk the variable across the order and back *)
        for _ = 1 to 3 do
          for l = 0 to 4 do
            D.swap_levels man l
          done;
          for l = 4 downto 0 do
            D.swap_levels man l
          done
        done;
        let live = D.live_size man in
        D.compress man;
        Helpers.check_int "live size unchanged" live (D.live_size man);
        Helpers.check_bool "function intact" true
          (T.equal (D.to_truthtable man b) tt);
        Helpers.check_bool "invariants" true (D.check_invariants man));
    Helpers.case "allocated grows under swaps, live does not" (fun () ->
        let tt = F.multiplexer ~select:2 in
        let man, _ = build tt in
        let live0 = D.live_size man in
        for _ = 1 to 4 do
          for l = 0 to 4 do
            D.swap_levels man l
          done;
          for l = 4 downto 0 do
            D.swap_levels man l
          done
        done;
        Helpers.check_int "live restored" live0 (D.live_size man);
        Helpers.check_bool "garbage accumulated" true
          (D.node_count man > live0));
    Helpers.case "ops after compress still canonical" (fun () ->
        let man = D.create 4 in
        let a = D.of_truthtable man (T.var 4 0) in
        let b = D.of_truthtable man (T.var 4 1) in
        let f = D.and_ man a b in
        D.protect man f;
        D.swap_levels man 0;
        D.compress man;
        let g = D.and_ man (D.var man 0) (D.var man 1) in
        Helpers.check_bool "same node" true (D.equal f g));
    Helpers.case "leaves survive sift and compress" (fun () ->
        let tt = F.hidden_weighted_bit 5 in
        let man = D.create ~order:[| 4; 2; 0; 3; 1 |] 5 in
        D.protect man (D.of_truthtable man tt);
        D.protect man (D.of_truthtable man (F.parity 5));
        D.sift man;
        D.compress man;
        Helpers.check_bool "constant false" true
          (D.equal (D.of_truthtable man (T.const 5 false)) (D.bfalse man));
        Helpers.check_bool "constant true" true
          (D.equal (D.of_truthtable man (T.const 5 true)) (D.btrue man));
        List.iter
          (fun tt ->
            Helpers.check_bool
              (Printf.sprintf "of_truthtable %s = of_expr" (T.to_string tt))
              true
              (D.equal (D.of_truthtable man tt)
                 (D.of_expr man (Ovo_boolfun.Expr.dnf_of_truthtable tt))))
          [ tt; F.parity 5; T.var 5 3; T.not_ (T.var 5 0) ];
        Helpers.check_bool "invariants" true (D.check_invariants man));
  ]

let props =
  [
    QCheck.Test.make ~name:"random swap sequences preserve the function"
      ~count:100
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let man, b = build tt in
        let st = Helpers.rng seed in
        let n = T.arity tt in
        for _ = 1 to 12 do
          D.swap_levels man (Random.State.int st (n - 1))
        done;
        T.equal (D.to_truthtable man b) tt && D.check_invariants man);
    QCheck.Test.make ~name:"live size equals Eval_order size of the order"
      ~count:100
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let man, _ = build tt in
        let st = Helpers.rng seed in
        let n = T.arity tt in
        for _ = 1 to 8 do
          D.swap_levels man (Random.State.int st (n - 1))
        done;
        let rf = D.order man in
        let pi = Ovo_core.Eval_order.read_first rf in
        D.live_size man = Ovo_core.Eval_order.size tt pi);
    QCheck.Test.make ~name:"sifting never increases the size" ~count:60
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let man = D.create ~order:(Helpers.perm_of_seed seed n) n in
        let b = D.of_truthtable man tt in
        D.protect man b;
        let before = D.live_size man in
        D.sift man;
        D.live_size man <= before
        && T.equal (D.to_truthtable man b) tt
        && D.check_invariants man);
    QCheck.Test.make ~name:"set_order to the FS optimum reaches the optimum"
      ~count:60
      (Helpers.arb_truthtable ~lo:2 ~hi:6 ())
      (fun tt ->
        let r = Ovo_core.Fs.run tt in
        let man, _ = build tt in
        D.set_order man (Ovo_core.Fs.read_first_order r);
        D.live_size man = r.Ovo_core.Fs.size);
    QCheck.Test.make ~name:"graph sifting agrees with table-based sifting cost"
      ~count:40
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:5 ()) QCheck.small_int)
      (fun (tt, seed) ->
        (* both are heuristics; they need not find the same order, but
           each must honestly report its own resulting order's size *)
        let n = T.arity tt in
        let init = Helpers.perm_of_seed seed n in
        let man = D.create ~order:init n in
        let b = D.of_truthtable man tt in
        D.protect man b;
        D.sift man;
        let pi = Ovo_core.Eval_order.read_first (D.order man) in
        D.live_size man = Ovo_core.Eval_order.size tt pi);
    QCheck.Test.make
      ~name:"a reordered manager restricts, quantifies and counts correctly"
      ~count:100
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:6 ()) QCheck.small_int)
      (fun (f_tt, seed) ->
        let n = T.arity f_tt in
        let st = Helpers.rng seed in
        let g_tt = T.random st n in
        let man = D.create ~order:(Helpers.perm_of_seed seed n) n in
        let f = D.of_truthtable man f_tt and g = D.of_truthtable man g_tt in
        D.protect man f;
        D.protect man g;
        if Random.State.bool st then D.sift man
        else
          for _ = 1 to 12 do
            D.swap_levels man (Random.State.int st (n - 1))
          done;
        let v = Random.State.int st n and b = Random.State.bool st in
        (* [code] with variable [v] set to [b] *)
        let force v b code =
          if b then code lor (1 lsl v) else code land lnot (1 lsl v)
        in
        let agrees u expect =
          T.equal (D.to_truthtable man u) (T.of_fun n expect)
        in
        let f_at v b code = T.eval f_tt (force v b code) in
        let sat_one_ok =
          match D.sat_one man f with
          | None -> T.count_ones f_tt = 0
          | Some cube ->
              List.for_all
                (fun code ->
                  T.eval f_tt
                    (List.fold_left (fun c (v, b) -> force v b c) code cube))
                (List.init (1 lsl n) Fun.id)
        in
        let fresh = D.create ~order:(D.order man) n in
        let fresh_size tt = D.size fresh (D.of_truthtable fresh tt) in
        T.equal (D.to_truthtable man f) f_tt
        && T.equal (D.to_truthtable man g) g_tt
        && agrees (D.restrict man f ~var:v b) (f_at v b)
        && agrees (D.exists man [ v ] f) (fun c ->
               f_at v false c || f_at v true c)
        && agrees (D.forall man [ v ] f) (fun c ->
               f_at v false c && f_at v true c)
        && agrees (D.compose_var man f ~var:v g) (fun c ->
               f_at v (T.eval g_tt c) c)
        && D.support man f = T.support f_tt
        && int_of_float (D.satcount man f) = T.count_ones f_tt
        && sat_one_ok
        && D.size man f = fresh_size f_tt
        && D.size man g = fresh_size g_tt
        && D.check_invariants man);
  ]

let () =
  Alcotest.run "bdd_reorder"
    [
      ("unit", unit_tests);
      ("gc", gc_tests);
      ("props", Helpers.qtests props);
    ]
