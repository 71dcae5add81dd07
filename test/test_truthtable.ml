module T = Ovo_boolfun.Truthtable

let xor2 = T.of_string "0110"

let unit_tests =
  [
    Helpers.case "of_string arity" (fun () ->
        Helpers.check_int "n" 2 (T.arity xor2);
        Helpers.check_int "size" 4 (T.size xor2));
    Helpers.case "of_string requires power of two" (fun () ->
        Alcotest.check_raises "bad length"
          (Invalid_argument "Truthtable: length not a power of two") (fun () ->
            ignore (T.of_string "011")));
    Helpers.case "eval bit encoding" (fun () ->
        (* code 1 = x0 set, x1 clear *)
        Helpers.check_bool "xor(1,0)" true (T.eval xor2 1);
        Helpers.check_bool "xor(0,1)" true (T.eval xor2 2);
        Helpers.check_bool "xor(1,1)" false (T.eval xor2 3));
    Helpers.case "eval_bits agrees with eval" (fun () ->
        Helpers.check_bool "bits" true (T.eval_bits xor2 [| true; false |]);
        Helpers.check_bool "bits" false (T.eval_bits xor2 [| true; true |]));
    Helpers.case "var projection" (fun () ->
        let v1 = T.var 3 1 in
        Helpers.check_bool "set" true (T.eval v1 0b010);
        Helpers.check_bool "clear" false (T.eval v1 0b101));
    Helpers.case "const" (fun () ->
        Helpers.check_int "ones of true" 8 (T.count_ones (T.const 3 true));
        Helpers.check_int "ones of false" 0 (T.count_ones (T.const 3 false));
        Alcotest.(check (option bool)) "is_const" (Some true)
          (T.is_const (T.const 3 true)));
    Helpers.case "restrict removes the variable" (fun () ->
        (* xor restricted on x0=1 is NOT x1 *)
        let r = T.restrict xor2 0 true in
        Helpers.check_int "arity" 1 (T.arity r);
        Helpers.check_bool "r(0)" true (T.eval r 0);
        Helpers.check_bool "r(1)" false (T.eval r 1));
    Helpers.case "restrict renumbers upper variables" (fun () ->
        (* f = x2 over 3 vars; restricting x0 leaves f = x1 over 2 vars *)
        let f = T.var 3 2 in
        let r = T.restrict f 0 false in
        Helpers.check_bool "eq" true (T.equal r (T.var 2 1)));
    Helpers.case "support and depends_on" (fun () ->
        let f = T.( ||| ) (T.var 3 0) (T.var 3 2) in
        Alcotest.(check (list int)) "support" [ 0; 2 ] (T.support f);
        Helpers.check_bool "dep 1" false (T.depends_on f 1));
    Helpers.case "connectives" (fun () ->
        let a = T.var 2 0 and b = T.var 2 1 in
        Alcotest.(check string) "and" "0001" (T.to_string T.(a &&& b));
        Alcotest.(check string) "or" "0111" (T.to_string T.(a ||| b));
        Alcotest.(check string) "xor" "0110" (T.to_string (T.xor a b));
        Alcotest.(check string) "not" "1010" (T.to_string (T.not_ a)));
    Helpers.case "permute_vars swap" (fun () ->
        (* f = x0 & !x1; swapping gives x1 & !x0 *)
        let f = T.( &&& ) (T.var 2 0) (T.not_ (T.var 2 1)) in
        let g = T.permute_vars f [| 1; 0 |] in
        Helpers.check_bool "g(0b01)=f(0b10)" (T.eval f 0b10) (T.eval g 0b01);
        Helpers.check_bool "eq" true
          (T.equal g (T.( &&& ) (T.var 2 1) (T.not_ (T.var 2 0)))));
    Helpers.case "permute_vars rejects non-permutation" (fun () ->
        Alcotest.check_raises "dup"
          (Invalid_argument "Truthtable.permute_vars: not a permutation")
          (fun () -> ignore (T.permute_vars xor2 [| 0; 0 |])));
    Helpers.case "zero-arity tables" (fun () ->
        let t = T.const 0 true in
        Helpers.check_int "size" 1 (T.size t);
        Helpers.check_bool "eval" true (T.eval t 0));
  ]

let props =
  [
    QCheck.Test.make ~name:"restrict then eval = eval with bit" ~count:300
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let st = Helpers.rng seed in
        let j = Random.State.int st n in
        let b = Random.State.bool st in
        let r = T.restrict tt j b in
        let ok = ref true in
        for code = 0 to T.size r - 1 do
          let low = code land ((1 lsl j) - 1) in
          let high = (code lsr j) lsl (j + 1) in
          let full = high lor low lor (if b then 1 lsl j else 0) in
          if T.eval r code <> T.eval tt full then ok := false
        done;
        !ok);
    QCheck.Test.make ~name:"permute then inverse-permute is identity"
      ~count:300
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let perm = Helpers.perm_of_seed seed n in
        let inv = Array.make n 0 in
        Array.iteri (fun i p -> inv.(p) <- i) perm;
        T.equal tt (T.permute_vars (T.permute_vars tt perm) inv));
    QCheck.Test.make ~name:"permutation preserves count_ones" ~count:300
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let perm = Helpers.perm_of_seed seed (T.arity tt) in
        T.count_ones (T.permute_vars tt perm) = T.count_ones tt);
    QCheck.Test.make ~name:"de morgan" ~count:300
      (QCheck.pair
         (Helpers.arb_truthtable ~lo:1 ~hi:5 ())
         (Helpers.arb_truthtable ~lo:1 ~hi:5 ()))
      (fun (a, b) ->
        QCheck.assume (T.arity a = T.arity b);
        T.equal (T.not_ T.(a &&& b)) T.(T.not_ a ||| T.not_ b));
    QCheck.Test.make ~name:"flip negates one input" ~count:300
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:10 ()) QCheck.small_nat)
      (fun (tt, j) ->
        let j = j mod T.arity tt in
        let g = T.flip tt j in
        List.for_all
          (fun code -> T.eval g code = T.eval tt (code lxor (1 lsl j)))
          (List.init (T.size tt) Fun.id)
        && T.equal (T.flip g j) tt);
    QCheck.Test.make ~name:"xor self is false" ~count:200
      (Helpers.arb_truthtable ())
      (fun tt -> T.is_const (T.xor tt tt) = Some false);
    QCheck.Test.make ~name:"count_ones + count of negation = size" ~count:200
      (Helpers.arb_truthtable ())
      (fun tt -> T.count_ones tt + T.count_ones (T.not_ tt) = T.size tt);
    QCheck.Test.make ~name:"cofactor shannon expansion" ~count:300
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let j = Random.State.int (Helpers.rng seed) n in
        let f0, f1 = T.cofactors tt j in
        let ok = ref true in
        for code = 0 to T.size tt - 1 do
          let sub =
            (* drop bit j from code *)
            (code land ((1 lsl j) - 1)) lor ((code lsr (j + 1)) lsl j)
          in
          let expect =
            if code land (1 lsl j) <> 0 then T.eval f1 sub else T.eval f0 sub
          in
          if T.eval tt code <> expect then ok := false
        done;
        !ok);
    QCheck.Test.make ~name:"canonicalize returns its own permutation" ~count:300
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        let canon, perm = T.canonicalize tt in
        T.equal canon (T.permute_vars tt perm));
    QCheck.Test.make ~name:"canonicalize is idempotent" ~count:200
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        let canon, _ = T.canonicalize tt in
        let canon2, _ = T.canonicalize canon in
        T.equal canon canon2);
    QCheck.Test.make
      ~name:"digest is invariant under variable permutation" ~count:300
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let perm = Helpers.perm_of_seed seed (T.arity tt) in
        String.equal (T.digest tt) (T.digest (T.permute_vars tt perm)));
    QCheck.Test.make
      ~name:"digest agrees with digest_of_canonical" ~count:200
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        let canon, _ = T.canonicalize tt in
        String.equal (T.digest tt) (T.digest_of_canonical canon));
  ]

let () =
  Alcotest.run "truthtable"
    [ ("unit", unit_tests); ("props", Helpers.qtests props) ]
