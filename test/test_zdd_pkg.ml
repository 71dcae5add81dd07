module Z = Ovo_bdd.Zdd
module T = Ovo_boolfun.Truthtable

module Sets = Set.Make (struct
  type t = int list

  let compare = compare
end)

let normalize family = Sets.of_list (List.map (List.sort_uniq compare) family)

(* random family of subsets of 0..n-1 *)
let gen_family =
  QCheck.Gen.(
    int_range 1 6 >>= fun n ->
    int_range 0 12 >>= fun count ->
    list_repeat count (int_range 0 ((1 lsl n) - 1)) >|= fun codes ->
    ( n,
      List.map
        (fun code ->
          List.filter (fun v -> code land (1 lsl v) <> 0) (List.init n (fun v -> v)))
        codes ))

let arb_family =
  QCheck.make
    ~print:(fun (n, fam) ->
      Printf.sprintf "n=%d [%s]" n
        (String.concat ";"
           (List.map
              (fun s -> "{" ^ String.concat "," (List.map string_of_int s) ^ "}")
              fam)))
    gen_family

let unit_tests =
  [
    Helpers.case "empty and base" (fun () ->
        let man = Z.create 3 in
        Helpers.check_int "empty count" 0 (int_of_float (Z.count man (Z.empty man)));
        Helpers.check_int "base count" 1 (int_of_float (Z.count man (Z.base man)));
        Helpers.check_bool "base contains {}" true (Z.mem man (Z.base man) []);
        Helpers.check_bool "empty contains nothing" false
          (Z.mem man (Z.empty man) []));
    Helpers.case "singleton membership" (fun () ->
        let man = Z.create 4 in
        let s = Z.singleton man [ 1; 3 ] in
        Helpers.check_bool "member" true (Z.mem man s [ 3; 1 ]);
        Helpers.check_bool "subset is not member" false (Z.mem man s [ 1 ]);
        Helpers.check_bool "superset is not member" false (Z.mem man s [ 1; 2; 3 ]));
    Helpers.case "to_family lexicographic example" (fun () ->
        let man = Z.create 3 in
        let f = Z.of_family man [ [ 2 ]; [ 0; 1 ]; [] ] in
        Helpers.check_int "count" 3 (int_of_float (Z.count man f));
        Helpers.check_bool "normalized equal" true
          (Sets.equal
             (normalize (Z.to_family man f))
             (normalize [ []; [ 0; 1 ]; [ 2 ] ])));
    Helpers.case "duplicates merge" (fun () ->
        let man = Z.create 3 in
        let f = Z.of_family man [ [ 1 ]; [ 1 ]; [ 1 ] ] in
        Helpers.check_int "count" 1 (int_of_float (Z.count man f)));
    Helpers.case "change toggles" (fun () ->
        let man = Z.create 3 in
        let f = Z.of_family man [ [ 0 ]; [ 0; 2 ] ] in
        let g = Z.change man f 0 in
        Helpers.check_bool "toggled" true
          (Sets.equal (normalize (Z.to_family man g)) (normalize [ []; [ 2 ] ])));
    Helpers.case "subset0/subset1" (fun () ->
        let man = Z.create 3 in
        let f = Z.of_family man [ [ 0 ]; [ 0; 1 ]; [ 2 ] ] in
        Helpers.check_bool "subset1 on 0" true
          (Sets.equal
             (normalize (Z.to_family man (Z.subset1 man f 0)))
             (normalize [ []; [ 1 ] ]));
        Helpers.check_bool "subset0 on 0" true
          (Sets.equal
             (normalize (Z.to_family man (Z.subset0 man f 0)))
             (normalize [ [ 2 ] ])));
    Helpers.case "join example" (fun () ->
        let man = Z.create 4 in
        let a = Z.of_family man [ [ 0 ]; [] ] in
        let b = Z.of_family man [ [ 1 ]; [ 0; 2 ] ] in
        Helpers.check_bool "join" true
          (Sets.equal
             (normalize (Z.to_family man (Z.join man a b)))
             (normalize [ [ 0; 1 ]; [ 0; 2 ]; [ 1 ] ])));
    Helpers.case "zero-suppression keeps sparse families tiny" (fun () ->
        let man = Z.create 20 in
        let s = Z.singleton man [ 7 ] in
        (* one node + two terminals regardless of the 20-element universe *)
        Helpers.check_int "size" 3 (Z.size man s));
    Helpers.case "maximal/minimal on a chain" (fun () ->
        let man = Z.create 4 in
        let fam = Z.of_family man [ []; [ 0 ]; [ 0; 1 ]; [ 2 ] ] in
        Helpers.check_bool "maximal" true
          (Sets.equal
             (normalize (Z.to_family man (Z.maximal man fam)))
             (normalize [ [ 0; 1 ]; [ 2 ] ]));
        Helpers.check_bool "minimal" true
          (Sets.equal
             (normalize (Z.to_family man (Z.minimal man fam)))
             (normalize [ [] ])));
    Helpers.case "meet example" (fun () ->
        let man = Z.create 4 in
        let a = Z.of_family man [ [ 0; 1 ]; [ 2 ] ] in
        let b = Z.of_family man [ [ 1; 2 ] ] in
        Helpers.check_bool "meet" true
          (Sets.equal
             (normalize (Z.to_family man (Z.meet man a b)))
             (normalize [ [ 1 ]; [ 2 ] ])));
    Helpers.case "element range checked" (fun () ->
        let man = Z.create 3 in
        Alcotest.check_raises "range"
          (Invalid_argument "Zdd: element out of range") (fun () ->
            ignore (Z.singleton man [ 3 ])));
  ]

(* set-based references for the order-theoretic operators *)
let ref_meet a b =
  Sets.fold
    (fun x acc ->
      Sets.fold
        (fun y acc ->
          Sets.add
            (List.filter (fun v -> List.mem v y) x)
            acc)
        b acc)
    a Sets.empty

let subset x y = List.for_all (fun v -> List.mem v y) x

let ref_maximal fam =
  Sets.filter
    (fun x -> not (Sets.exists (fun y -> x <> y && subset x y) fam))
    fam

let ref_minimal fam =
  Sets.filter
    (fun x -> not (Sets.exists (fun y -> x <> y && subset y x) fam))
    fam

let family_op_prop name zdd_op set_op =
  QCheck.Test.make ~name ~count:200 (QCheck.pair arb_family arb_family)
    (fun ((n1, f1), (n2, f2)) ->
      let n = max n1 n2 in
      let man = Z.create n in
      let a = Z.of_family man f1 and b = Z.of_family man f2 in
      let result = normalize (Z.to_family man (zdd_op man a b)) in
      let expect = set_op (normalize f1) (normalize f2) in
      Sets.equal result expect)

let props =
  [
    QCheck.Test.make ~name:"of_family/to_family round trip" ~count:200
      arb_family
      (fun (n, fam) ->
        let man = Z.create n in
        Sets.equal
          (normalize (Z.to_family man (Z.of_family man fam)))
          (normalize fam));
    family_op_prop "union is set union" Z.union Sets.union;
    family_op_prop "inter is set intersection" Z.inter Sets.inter;
    family_op_prop "diff is set difference" Z.diff Sets.diff;
    family_op_prop "join is pairwise union" Z.join (fun a b ->
        Sets.fold
          (fun x acc ->
            Sets.fold
              (fun y acc ->
                Sets.add (List.sort_uniq compare (x @ y)) acc)
              b acc)
          a Sets.empty);
    QCheck.Test.make ~name:"count equals family cardinality" ~count:200
      arb_family
      (fun (n, fam) ->
        let man = Z.create n in
        int_of_float (Z.count man (Z.of_family man fam))
        = Sets.cardinal (normalize fam));
    QCheck.Test.make ~name:"mem agrees with the family" ~count:200
      (QCheck.pair arb_family QCheck.small_int)
      (fun ((n, fam), seed) ->
        let man = Z.create n in
        let z = Z.of_family man fam in
        let code = Random.State.int (Helpers.rng seed) (1 lsl n) in
        let set =
          List.filter (fun v -> code land (1 lsl v) <> 0) (List.init n (fun v -> v))
        in
        Z.mem man z set = Sets.mem set (normalize fam));
    family_op_prop "meet is pairwise intersection" Z.meet ref_meet;
    QCheck.Test.make ~name:"maximal keeps exactly the un-dominated sets"
      ~count:200 arb_family
      (fun (n, fam) ->
        let man = Z.create n in
        let z = Z.of_family man fam in
        Sets.equal
          (normalize (Z.to_family man (Z.maximal man z)))
          (ref_maximal (normalize fam)));
    QCheck.Test.make ~name:"minimal keeps exactly the un-dominating sets"
      ~count:200 arb_family
      (fun (n, fam) ->
        let man = Z.create n in
        let z = Z.of_family man fam in
        Sets.equal
          (normalize (Z.to_family man (Z.minimal man z)))
          (ref_minimal (normalize fam)));
    QCheck.Test.make ~name:"custom element order preserves the family"
      ~count:150
      (QCheck.pair arb_family QCheck.small_int)
      (fun ((n, fam), seed) ->
        let order = Helpers.perm_of_seed seed n in
        let man = Z.create ~order n in
        Sets.equal
          (normalize (Z.to_family man (Z.of_family man fam)))
          (normalize fam));
    QCheck.Test.make
      ~name:"family ops agree across element orders" ~count:100
      (QCheck.triple arb_family arb_family QCheck.small_int)
      (fun ((n1, f1), (n2, f2), seed) ->
        let n = max n1 n2 in
        let order = Helpers.perm_of_seed seed n in
        let m1 = Z.create n and m2 = Z.create ~order n in
        let go m =
          let a = Z.of_family m f1 and b = Z.of_family m f2 in
          normalize (Z.to_family m (Z.union m (Z.join m a b) (Z.diff m a b)))
        in
        Sets.equal (go m1) (go m2));
    QCheck.Test.make
      ~name:"import of the exact minimum ZDD preserves family and size"
      ~count:100
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        let r = Ovo_core.Fs.run ~kind:Ovo_core.Compact.Zdd tt in
        let man =
          Z.create ~order:(Ovo_core.Fs.read_first_order r) (T.arity tt)
        in
        let z = Z.import man r.Ovo_core.Fs.diagram in
        T.equal (Z.to_truthtable man z) tt
        && Z.size man z = r.Ovo_core.Fs.size);
    QCheck.Test.make ~name:"zdd size under order equals Eval_order" ~count:100
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let pi = Helpers.perm_of_seed seed n in
        let man = Z.create ~order:(Ovo_core.Eval_order.read_first pi) n in
        Z.size man (Z.of_truthtable man tt)
        = Ovo_core.Eval_order.size ~kind:Ovo_core.Compact.Zdd tt pi);
    QCheck.Test.make
      ~name:"of_truthtable is the handle of_family builds, under any order"
      ~count:150
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let man = Z.create ~order:(Helpers.perm_of_seed seed n) n in
        let sets =
          List.filter_map
            (fun code ->
              if T.eval tt code then
                Some
                  (List.filter
                     (fun v -> code land (1 lsl v) <> 0)
                     (List.init n Fun.id))
              else None)
            (List.init (1 lsl n) Fun.id)
        in
        Z.equal (Z.of_truthtable man tt) (Z.of_family man sets));
    QCheck.Test.make ~name:"count_by_size matches the enumerated family"
      ~count:200 arb_family
      (fun (n, fam) ->
        let man = Z.create n in
        let z = Z.of_family man fam in
        let counts = Z.count_by_size man z in
        let expect = Array.make (n + 1) 0. in
        Sets.iter
          (fun s -> expect.(List.length s) <- expect.(List.length s) +. 1.)
          (normalize fam);
        counts = expect
        && Array.fold_left ( +. ) 0. counts = Z.count man z);
    QCheck.Test.make ~name:"truthtable round trip" ~count:150
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        let man = Z.create (T.arity tt) in
        T.equal (Z.to_truthtable man (Z.of_truthtable man tt)) tt);
    QCheck.Test.make ~name:"canonicity: equal families share handles"
      ~count:100 arb_family
      (fun (n, fam) ->
        let man = Z.create n in
        let a = Z.of_family man fam in
        let b = Z.of_family man (List.rev fam) in
        Z.equal a b);
  ]

let () =
  Alcotest.run "zdd_pkg"
    [ ("unit", unit_tests); ("props", Helpers.qtests props) ]
