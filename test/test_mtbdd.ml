module M = Ovo_bdd.Mtbdd
module Mt = Ovo_boolfun.Mtable

let unit_tests =
  [
    Helpers.case "terminals are canonical" (fun () ->
        let man = M.create 3 in
        Helpers.check_bool "shared" true
          (M.equal (M.terminal man 7) (M.terminal man 7));
        Helpers.check_bool "distinct" false
          (M.equal (M.terminal man 7) (M.terminal man 8));
        Alcotest.(check (option int)) "value" (Some 7)
          (M.value man (M.terminal man 7)));
    Helpers.case "select tests a variable" (fun () ->
        let man = M.create 3 in
        let d = M.select man 1 (M.terminal man 10) (M.terminal man 20) in
        Helpers.check_int "x1=0" 10 (M.eval man d 0);
        Helpers.check_int "x1=1" 20 (M.eval man d 0b010));
    Helpers.case "select with equal children collapses" (fun () ->
        let man = M.create 3 in
        let t = M.terminal man 5 in
        Helpers.check_bool "collapsed" true (M.equal (M.select man 0 t t) t);
        Alcotest.(check (option int)) "value" (Some 5)
          (M.value man (M.select man 0 t t)));
    Helpers.case "add combines pointwise" (fun () ->
        let man = M.create 2 in
        let a = M.select man 0 (M.terminal man 1) (M.terminal man 2) in
        let b = M.select man 1 (M.terminal man 10) (M.terminal man 20) in
        let s = M.add man a b in
        Helpers.check_int "00" 11 (M.eval man s 0);
        Helpers.check_int "01" 12 (M.eval man s 1);
        Helpers.check_int "10" 21 (M.eval man s 2);
        Helpers.check_int "11" 22 (M.eval man s 3));
    Helpers.case "apply1 maps leaves" (fun () ->
        let man = M.create 2 in
        let a = M.select man 0 (M.terminal man 1) (M.terminal man 2) in
        let sq = M.apply1 man (fun v -> v * v) a in
        Helpers.check_int "0" 1 (M.eval man sq 0);
        Helpers.check_int "1" 4 (M.eval man sq 1));
    Helpers.case "restrict" (fun () ->
        let man = M.create 2 in
        let a = M.select man 0 (M.terminal man 1) (M.terminal man 2) in
        Alcotest.(check (option int)) "restricted" (Some 2)
          (M.value man (M.restrict man a ~var:0 true)));
    Helpers.case "import optimised MTBDD" (fun () ->
        let mt = Mt.of_fun 4 ~values:5 (fun code -> code mod 5) in
        let r = Ovo_core.Fs.run_mtable mt in
        let man = M.create ~order:(Ovo_core.Fs.read_first_order r) 4 in
        let d = M.import man r.Ovo_core.Fs.diagram in
        let ok = ref true in
        for code = 0 to 15 do
          if M.eval man d code <> Mt.eval mt code then ok := false
        done;
        Helpers.check_bool "eval agrees" true !ok;
        Helpers.check_int "size matches the optimiser" r.Ovo_core.Fs.size
          (M.size man d));
  ]

let props =
  [
    QCheck.Test.make ~name:"of_mtable/to_mtable round trip" ~count:150
      (Helpers.arb_mtable ~lo:1 ~hi:5 ~values:4 ())
      (fun mt ->
        let man = M.create (Mt.arity mt) in
        Mt.equal (M.to_mtable man ~values:(Mt.num_values mt) (M.of_mtable man mt)) mt);
    QCheck.Test.make ~name:"apply2 is pointwise" ~count:150
      (QCheck.pair
         (Helpers.arb_mtable ~lo:1 ~hi:4 ~values:5 ())
         (Helpers.arb_mtable ~lo:1 ~hi:4 ~values:5 ()))
      (fun (a, b) ->
        QCheck.assume (Mt.arity a = Mt.arity b);
        let man = M.create (Mt.arity a) in
        let da = M.of_mtable man a and db = M.of_mtable man b in
        let s = M.apply2 man (fun x y -> (3 * x) + y) da db in
        let ok = ref true in
        for code = 0 to (1 lsl Mt.arity a) - 1 do
          if M.eval man s code <> (3 * Mt.eval a code) + Mt.eval b code then
            ok := false
        done;
        !ok);
    QCheck.Test.make ~name:"max/min bracket add/2" ~count:150
      (QCheck.pair
         (Helpers.arb_mtable ~lo:1 ~hi:4 ~values:5 ())
         (Helpers.arb_mtable ~lo:1 ~hi:4 ~values:5 ()))
      (fun (a, b) ->
        QCheck.assume (Mt.arity a = Mt.arity b);
        let man = M.create (Mt.arity a) in
        let da = M.of_mtable man a and db = M.of_mtable man b in
        let hi = M.max_ man da db and lo = M.min_ man da db in
        let ok = ref true in
        for code = 0 to (1 lsl Mt.arity a) - 1 do
          let va = Mt.eval a code and vb = Mt.eval b code in
          if M.eval man hi code <> max va vb then ok := false;
          if M.eval man lo code <> min va vb then ok := false
        done;
        !ok);
    QCheck.Test.make ~name:"canonicity under different construction orders"
      ~count:100
      (Helpers.arb_mtable ~lo:1 ~hi:4 ~values:3 ())
      (fun mt ->
        let man = M.create (Mt.arity mt) in
        let d1 = M.of_mtable man mt in
        (* rebuild through apply2 of itself with max: identical function *)
        let d2 = M.max_ man d1 d1 in
        M.equal d1 d2);
    QCheck.Test.make
      ~name:"of_mtable is the Shannon tree select builds, under any order"
      ~count:150
      (QCheck.pair
         (Helpers.arb_mtable ~lo:1 ~hi:6 ~values:4 ())
         QCheck.small_int)
      (fun (mt, seed) ->
        let n = Mt.arity mt in
        let order = Helpers.perm_of_seed seed n in
        let man = M.create ~order n in
        (* split on the variable of level l, root first; [code] holds the
           bits of the levels above *)
        let rec shannon l code =
          if l = n then M.terminal man (Mt.eval mt code)
          else
            let v = order.(l) in
            M.select man v (shannon (l + 1) code)
              (shannon (l + 1) (code lor (1 lsl v)))
        in
        M.equal (M.of_mtable man mt) (shannon 0 0));
    QCheck.Test.make ~name:"import equals of_mtable under the same order"
      ~count:80
      (Helpers.arb_mtable ~lo:1 ~hi:4 ~values:3 ())
      (fun mt ->
        let r = Ovo_core.Fs.run_mtable mt in
        let order = Ovo_core.Fs.read_first_order r in
        let man = M.create ~order (Mt.arity mt) in
        M.equal (M.import man r.Ovo_core.Fs.diagram) (M.of_mtable man mt));
  ]

let () =
  Alcotest.run "mtbdd"
    [ ("unit", unit_tests); ("props", Helpers.qtests props) ]
