module E = Ovo_boolfun.Expr
module T = Ovo_boolfun.Truthtable

let tt_of s = E.to_truthtable (E.of_string s)

let unit_tests =
  [
    Helpers.case "parse variables and precedence" (fun () ->
        (* & binds tighter than ^, which binds tighter than | *)
        let e = E.of_string "x0 | x1 ^ x2 & x3" in
        Alcotest.(check string) "shape" "x0 | (x1 ^ (x2 & x3))" (E.to_string e));
    Helpers.case "parse negation and parens" (fun () ->
        let e = E.of_string "!(x0 | x1) & ~x2" in
        Helpers.check_bool "at 000" true (E.eval e (fun _ -> false));
        Helpers.check_bool "at x2" false
          (E.eval e (fun j -> j = 2)));
    Helpers.case "letters map to indices" (fun () ->
        let e = E.of_string "a & c" in
        Alcotest.(check (list int)) "vars" [ 0; 2 ] (E.vars e));
    Helpers.case "constants" (fun () ->
        Helpers.check_bool "true" true (E.eval (E.of_string "true") (fun _ -> false));
        Helpers.check_bool "1 & 0" false
          (E.eval (E.of_string "1 & 0") (fun _ -> false)));
    Helpers.case "left associativity" (fun () ->
        Alcotest.(check string) "assoc" "(x0 ^ x1) ^ x2"
          (E.to_string (E.of_string "x0 ^ x1 ^ x2")));
    Helpers.case "parse errors" (fun () ->
        List.iter
          (fun s ->
            match E.of_string s with
            | _ -> Alcotest.failf "expected failure on %S" s
            | exception Failure _ -> ())
          [ "x0 &"; "& x0"; "(x0"; "x0)"; "x"; "x0 x1"; "" ]);
    Helpers.case "to_truthtable xor" (fun () ->
        Alcotest.(check string) "xor" "0110" (T.to_string (tt_of "x0 ^ x1")));
    Helpers.case "to_truthtable arity padding" (fun () ->
        let tt = E.to_truthtable ~arity:3 (E.of_string "x0") in
        Helpers.check_int "arity" 3 (T.arity tt);
        Helpers.check_int "ones" 4 (T.count_ones tt));
    Helpers.case "to_truthtable arity too small" (fun () ->
        Alcotest.check_raises "small"
          (Invalid_argument "Expr.to_truthtable: arity too small") (fun () ->
            ignore (E.to_truthtable ~arity:1 (E.of_string "x1"))));
    Helpers.case "max_var of closed expr" (fun () ->
        Helpers.check_int "closed" (-1) (E.max_var (E.of_string "1 | 0")));
    Helpers.case "size counts nodes" (fun () ->
        Helpers.check_int "size" 6 (E.size (E.of_string "!x0 & (x1 | x2)")));
    Helpers.case "dnf of constant" (fun () ->
        Alcotest.(check string) "false" "0"
          (E.to_string (E.dnf_of_truthtable (T.const 2 false)));
        Alcotest.(check string) "true (cnf)" "1"
          (E.to_string (E.cnf_of_truthtable (T.const 2 true))));
  ]

let simplify_tests =
  [
    Helpers.case "constant folding" (fun () ->
        Alcotest.(check string) "and" "0"
          (E.to_string (E.simplify (E.of_string "x0 & 0")));
        Alcotest.(check string) "or" "1"
          (E.to_string (E.simplify (E.of_string "x0 | 1")));
        Alcotest.(check string) "units" "x0"
          (E.to_string (E.simplify (E.of_string "x0 & 1 | 0"))));
    Helpers.case "double negation" (fun () ->
        Alcotest.(check string) "notnot" "x2"
          (E.to_string (E.simplify (E.of_string "!!x2"))));
    Helpers.case "idempotence and self-xor" (fun () ->
        Alcotest.(check string) "and" "x1"
          (E.to_string (E.simplify (E.of_string "x1 & x1")));
        Alcotest.(check string) "xor" "0"
          (E.to_string (E.simplify (E.of_string "x1 ^ x1"))));
    Helpers.case "xor with true negates" (fun () ->
        Alcotest.(check string) "negate" "!x0"
          (E.to_string (E.simplify (E.of_string "x0 ^ 1")));
        Alcotest.(check string) "unwrap" "x0"
          (E.to_string (E.simplify (E.of_string "!x0 ^ 1"))));
  ]

let props =
  [
    QCheck.Test.make ~name:"printer/parser round trip" ~count:300
      (Helpers.arb_expr ())
      (fun e ->
        let e' = E.of_string (E.to_string e) in
        (* equality of semantics, not syntax *)
        let n = max 1 (E.max_var e + 1) in
        T.equal (E.to_truthtable ~arity:n e) (E.to_truthtable ~arity:n e'));
    QCheck.Test.make ~name:"dnf round trip (Corollary 2 path)" ~count:200
      (Helpers.arb_truthtable ~lo:1 ~hi:5 ())
      (fun tt ->
        T.equal tt
          (E.to_truthtable ~arity:(T.arity tt) (E.dnf_of_truthtable tt)));
    QCheck.Test.make ~name:"cnf round trip (Corollary 2 path)" ~count:200
      (Helpers.arb_truthtable ~lo:1 ~hi:5 ())
      (fun tt ->
        T.equal tt
          (E.to_truthtable ~arity:(T.arity tt) (E.cnf_of_truthtable tt)));
    QCheck.Test.make ~name:"eval agrees with truth table" ~count:300
      (QCheck.pair (Helpers.arb_expr ()) QCheck.small_int)
      (fun (e, seed) ->
        (* a constant expression has a one-entry table *)
        let tt = E.to_truthtable e in
        let code = Random.State.int (Helpers.rng seed) (T.size tt) in
        E.eval e (fun j -> code land (1 lsl j) <> 0) = T.eval tt code);
    QCheck.Test.make ~name:"simplify preserves semantics" ~count:300
      (Helpers.arb_expr ())
      (fun e ->
        let n = max 1 (E.max_var e + 1) in
        T.equal (E.to_truthtable ~arity:n e)
          (E.to_truthtable ~arity:n (E.simplify e)));
    QCheck.Test.make ~name:"simplify never grows the AST" ~count:300
      (Helpers.arb_expr ())
      (fun e -> E.size (E.simplify e) <= E.size e);
    QCheck.Test.make ~name:"simplify is idempotent" ~count:300
      (Helpers.arb_expr ())
      (fun e ->
        let once = E.simplify e in
        E.simplify once = once);
    QCheck.Test.make ~name:"vars subset of 0..max_var" ~count:200
      (Helpers.arb_expr ())
      (fun e -> List.for_all (fun v -> v >= 0 && v <= E.max_var e) (E.vars e));
  ]

let () =
  Alcotest.run "expr"
    [
      ("unit", unit_tests);
      ("simplify", simplify_tests);
      ("props", Helpers.qtests props);
    ]
