module Fs = Ovo_core.Fs
module C = Ovo_core.Compact
module T = Ovo_boolfun.Truthtable
module F = Ovo_boolfun.Families

(* counts nobody reads: the kernels take an explicit context *)
let metrics = Ovo_core.Metrics.create ()

(* brute-force weighted optimum *)
let brute_weighted ?(kind = C.Bdd) ~weights tt =
  let n = T.arity tt in
  let base = C.of_truthtable kind tt in
  List.fold_left
    (fun acc order ->
      let cost = ref 0 in
      let st = ref base in
      Array.iter
        (fun v ->
          let nx = C.compact ~metrics !st v in
          cost := !cost + (weights.(v) * (nx.C.mincost - !st.C.mincost));
          st := nx)
        order;
      min acc !cost)
    max_int (Helpers.all_orders n)

(* Exhaustive check of FS against brute force for every 2- and
   3-variable function. *)
let exhaustive_small () =
  for bits = 0 to 15 do
    let tt =
      T.of_fun 2 (fun code -> bits land (1 lsl code) <> 0)
    in
    let r = Fs.run tt in
    Helpers.check_int
      (Printf.sprintf "fn %d" bits)
      (Helpers.brute_mincost tt) r.Fs.mincost;
    Helpers.check_bool "valid" true (Ovo_core.Diagram.check_tt r.Fs.diagram tt)
  done;
  for bits = 0 to 255 do
    let tt = T.of_fun 3 (fun code -> bits land (1 lsl code) <> 0) in
    let r = Fs.run tt in
    Helpers.check_int
      (Printf.sprintf "fn3 %d" bits)
      (Helpers.brute_mincost tt) r.Fs.mincost
  done;
  (* the weighted DP over every 2- and 3-variable function, with a zero
     weight among the levels, for both diagram kinds *)
  List.iter
    (fun (n, weights) ->
      for bits = 0 to (1 lsl (1 lsl n)) - 1 do
        let tt = T.of_fun n (fun code -> bits land (1 lsl code) <> 0) in
        List.iter
          (fun kind ->
            let r = Fs.run ~kind ~weights tt in
            Helpers.check_int
              (Printf.sprintf "weighted fn%d %d" n bits)
              (brute_weighted ~kind ~weights tt)
              (Helpers.weighted_cost ~weights r))
          [ C.Bdd; C.Zdd ]
      done)
    [ (2, [| 3; 0 |]); (3, [| 3; 0; 2 |]) ]

let unit_tests =
  [
    Helpers.case "exhaustive n<=3 equals brute force" exhaustive_small;
    Helpers.case "achilles optimum is linear" (fun () ->
        for pairs = 1 to 5 do
          let r = Fs.run (F.achilles pairs) in
          Helpers.check_int "size" ((2 * pairs) + 2) r.Fs.size
        done);
    Helpers.case "parity optimum is 2n-1 nodes" (fun () ->
        for n = 1 to 7 do
          let r = Fs.run (F.parity n) in
          Helpers.check_int "mincost" ((2 * n) - 1) r.Fs.mincost
        done);
    Helpers.case "constant functions" (fun () ->
        let r = Fs.run (T.const 4 false) in
        Helpers.check_int "mincost" 0 r.Fs.mincost;
        Helpers.check_int "size" 1 r.Fs.size);
    Helpers.case "single variable" (fun () ->
        let r = Fs.run (T.var 4 2) in
        Helpers.check_int "mincost" 1 r.Fs.mincost;
        Helpers.check_int "size" 3 r.Fs.size);
    Helpers.case "zero-arity function" (fun () ->
        let r = Fs.run (T.const 0 true) in
        Helpers.check_int "mincost" 0 r.Fs.mincost;
        Helpers.check_int "size" 1 r.Fs.size;
        Helpers.check_int "order length" 0 (Array.length r.Fs.order));
    Helpers.case "widths describe the returned order" (fun () ->
        let tt = F.hidden_weighted_bit 5 in
        let r = Fs.run tt in
        Alcotest.(check (array int))
          "widths" (Ovo_core.Eval_order.widths tt r.Fs.order) r.Fs.widths);
    Helpers.case "read_first_order reverses" (fun () ->
        let r = Fs.run (F.achilles 2) in
        let rf = Fs.read_first_order r in
        let n = Array.length rf in
        Helpers.check_bool "reversed" true
          (Array.for_all (fun i -> rf.(i) = r.Fs.order.(n - 1 - i))
             (Array.init n (fun i -> i))));
    Helpers.case "all_mincosts has 2^n entries and matches run" (fun () ->
        let tt = F.multiplexer ~select:2 in
        let n = T.arity tt in
        let table = Helpers.all_mincosts tt in
        Helpers.check_int "entries" (1 lsl n) (Hashtbl.length table);
        Helpers.check_int "full set" (Fs.run tt).Fs.mincost
          (Hashtbl.find table (Ovo_core.Varset.full n));
        Helpers.check_int "empty" 0 (Hashtbl.find table Ovo_core.Varset.empty));
    Helpers.case "mtbdd minimisation equals brute force" (fun () ->
        let st = Helpers.rng 11 in
        for _ = 1 to 10 do
          let n = 1 + Random.State.int st 4 in
          let mt =
            Ovo_boolfun.Mtable.of_fun n ~values:3 (fun _ ->
                Random.State.int st 3)
          in
          let r = Fs.run_mtable mt in
          Helpers.check_int "mtbdd" (Helpers.brute_mincost_mtable mt) r.Fs.mincost;
          Helpers.check_bool "valid" true (Ovo_core.Diagram.check r.Fs.diagram mt)
        done);
    Helpers.case "weights are refused exactly when a total could overflow"
      (fun () ->
        (* a level has at most 2^(n-1) nodes, so the largest weight
           accepted is max_int / 2^(n-1) (all others 0); one more, or
           any other weight beside it, is refused.  At n = 1 that is
           max_int itself, so nothing larger exists. *)
        let refused weights tt =
          match Fs.run ~weights tt with
          | exception Invalid_argument m -> m = "Fs.run: weights too large"
          | _ -> false
        in
        let st = Helpers.rng 21 in
        for n = 1 to 5 do
          let tt = T.random st n and cap = max_int asr (n - 1) in
          let at w = Array.init n (fun i -> if i = 0 then w else 0) in
          let r = Fs.run ~weights:(at cap) tt in
          Helpers.check_int
            (Printf.sprintf "n=%d accepted" n)
            (brute_weighted ~weights:(at cap) tt)
            (Helpers.weighted_cost ~weights:(at cap) r);
          if n > 1 then begin
            Helpers.check_bool
              (Printf.sprintf "n=%d refused" n)
              true
              (refused (at (cap + 1)) tt);
            Helpers.check_bool
              (Printf.sprintf "n=%d sum refused" n)
              true
              (refused (Array.init n (fun i -> if i = 0 then cap else 1)) tt)
          end
        done);
    Helpers.case "known catalogue optima are stable" (fun () ->
        (* regression anchors measured once from the exact algorithm *)
        List.iter
          (fun (name, expected) ->
            let tt = List.assoc name (F.catalogue ~max_arity:10) in
            Helpers.check_int name expected (Fs.run tt).Fs.mincost)
          [
            ("hwb-6", 21); ("mux-2", 7); ("adder-4-carry", 11); ("parity-8", 15);
          ]);
  ]

let props =
  [
    QCheck.Test.make ~name:"FS equals brute force (BDD)" ~count:120
      (Helpers.arb_truthtable ~lo:1 ~hi:5 ())
      (fun tt -> (Fs.run tt).Fs.mincost = Helpers.brute_mincost tt);
    QCheck.Test.make ~name:"FS equals brute force (ZDD)" ~count:120
      (Helpers.arb_truthtable ~lo:1 ~hi:5 ())
      (fun tt ->
        (Fs.run ~kind:C.Zdd tt).Fs.mincost
        = Helpers.brute_mincost ~kind:C.Zdd tt);
    QCheck.Test.make ~name:"returned diagram is valid and realises mincost"
      ~count:120
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        let r = Fs.run tt in
        Ovo_core.Diagram.check_tt r.Fs.diagram tt
        && Ovo_core.Diagram.node_count r.Fs.diagram = r.Fs.mincost
        && Ovo_core.Eval_order.mincost tt r.Fs.order = r.Fs.mincost);
    QCheck.Test.make ~name:"optimum invariant under variable relabeling"
      ~count:80
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:5 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let perm = Helpers.perm_of_seed seed (T.arity tt) in
        (Fs.run tt).Fs.mincost = (Fs.run (T.permute_vars tt perm)).Fs.mincost);
    QCheck.Test.make ~name:"optimum of negation equals optimum" ~count:80
      (Helpers.arb_truthtable ~lo:1 ~hi:5 ())
      (fun tt -> (Fs.run tt).Fs.mincost = (Fs.run (T.not_ tt)).Fs.mincost);
    QCheck.Test.make
      ~name:"every non-empty I has a predecessor no costlier (Lemma 4)"
      ~count:60
      (Helpers.arb_truthtable ~lo:1 ~hi:5 ())
      (fun tt ->
        (* dropping the top variable of an optimal block never increases
           the cost: MINCOST_I >= min over h of MINCOST_(I minus h) *)
        let table = Helpers.all_mincosts tt in
        let ok = ref true in
        Hashtbl.iter
          (fun iset cost ->
            if not (Ovo_core.Varset.is_empty iset) then begin
              let best = ref max_int in
              Ovo_core.Varset.iter
                (fun h ->
                  let c = Hashtbl.find table (Ovo_core.Varset.remove h iset) in
                  if c < !best then best := c)
                iset;
              if !best > cost then ok := false
            end)
          table;
        !ok);
  ]

let extension_props =
  [
    QCheck.Test.make ~name:"weighted DP equals weighted brute force" ~count:40
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:5 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let st = Helpers.rng seed in
        let weights = Array.init n (fun _ -> Random.State.int st 5) in
        let kind = if Random.State.bool st then C.Bdd else C.Zdd in
        let r = Fs.run ~kind ~weights tt in
        Helpers.weighted_cost ~weights r = brute_weighted ~kind ~weights tt
        && Ovo_core.Diagram.check_tt r.Fs.diagram tt);
    QCheck.Test.make ~name:"uniform weights reduce to plain FS" ~count:40
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        (* ties keep the smallest h in both sweeps, so the orders agree
           too *)
        let n = T.arity tt in
        List.for_all
          (fun kind ->
            let weights = Array.make n 1 in
            let r = Fs.run ~kind ~weights tt in
            let p = Fs.run ~kind tt in
            Helpers.weighted_cost ~weights r = p.Fs.mincost
            && r.Fs.order = p.Fs.order)
          [ C.Bdd; C.Zdd ]);
    QCheck.Test.make
      ~name:"weighted order is consistent with its reported costs" ~count:40
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:5 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let st = Helpers.rng seed in
        let weights = Array.init n (fun _ -> 1 + Random.State.int st 4) in
        let r = Fs.run ~weights tt in
        let widths = Ovo_core.Eval_order.widths tt r.Fs.order in
        let recomputed = ref 0 in
        Array.iteri
          (fun level w ->
            recomputed := !recomputed + (weights.(r.Fs.order.(level)) * w))
          widths;
        !recomputed = Helpers.weighted_cost ~weights r);
  ]

let () =
  Alcotest.run "fs"
    [
      ("unit", unit_tests);
      ("props", Helpers.qtests props);
      ("extensions", Helpers.qtests extension_props);
    ]
