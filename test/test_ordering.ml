module Ord = Ovo_ordering
module Fs = Ovo_core.Fs
module T = Ovo_boolfun.Truthtable
module F = Ovo_boolfun.Families
module Mt = Ovo_boolfun.Mtable

let unit_tests =
  [
    Helpers.case "perm iter_all counts n!" (fun () ->
        for n = 0 to 6 do
          let count = ref 0 in
          Ord.Perm.iter_all n (fun _ -> incr count);
          Helpers.check_int
            (Printf.sprintf "%d!" n)
            (int_of_float (Ord.Perm.count n))
            !count
        done);
    Helpers.case "perm iter_all yields distinct permutations" (fun () ->
        let seen = Hashtbl.create 64 in
        Ord.Perm.iter_all 5 (fun p -> Hashtbl.replace seen (Array.copy p) ());
        Helpers.check_int "distinct" 120 (Hashtbl.length seen));
    Helpers.case "perm move semantics" (fun () ->
        Alcotest.(check (array int)) "forward" [| 1; 2; 0; 3 |]
          (Ord.Perm.move [| 0; 1; 2; 3 |] ~from:0 ~to_:2);
        Alcotest.(check (array int)) "backward" [| 2; 0; 1; 3 |]
          (Ord.Perm.move [| 0; 1; 2; 3 |] ~from:2 ~to_:0);
        Alcotest.(check (array int)) "no-op" [| 0; 1; 2 |]
          (Ord.Perm.move [| 0; 1; 2 |] ~from:1 ~to_:1));
    Helpers.case "brute refuses large arities" (fun () ->
        Alcotest.check_raises "limit"
          (Invalid_argument "Brute.best: arity above limit") (fun () ->
            ignore (Ord.Brute.best (Mt.of_truthtable (F.parity 10)))));
    Helpers.case "brute on achilles recovers the linear optimum" (fun () ->
        let tt = F.achilles 3 in
        let r = Ord.Brute.best (Mt.of_truthtable tt) in
        Helpers.check_int "mincost" 6 r.Ord.Chain.mincost);
    Helpers.case "sifting from the bad achilles ordering recovers optimum"
      (fun () ->
        let tt = F.achilles 4 in
        let r =
          Ord.Sifting.run ~initial:(F.achilles_bad_order 4) (Mt.of_truthtable tt)
        in
        Helpers.check_int "mincost" 8 r.Ord.Chain.mincost);
    Helpers.case "window is suboptimal on mux-2 but valid" (fun () ->
        let tt = F.multiplexer ~select:2 in
        let r = Ord.Window.run ~window:3 (Mt.of_truthtable tt) in
        let exact = (Fs.run tt).Fs.mincost in
        Helpers.check_bool "at least exact" true (r.Ord.Chain.mincost >= exact);
        Helpers.check_int "reproducible cost" r.Ord.Chain.mincost
          (Ovo_core.Eval_order.mincost tt r.Ord.Chain.order));
    Helpers.case "exact-block with block = n is exact" (fun () ->
        let tt = F.hidden_weighted_bit 5 in
        let r = Ord.Exact_block.run ~block:5 (Mt.of_truthtable tt) in
        Helpers.check_int "exact" (Fs.run tt).Fs.mincost r.Ord.Chain.mincost);
    Helpers.case "quality report structure" (fun () ->
        let tt = F.multiplexer ~select:2 in
        let report = Ord.Quality.evaluate ~name:"mux" tt in
        Helpers.check_int "exact" 7 report.Ord.Quality.exact;
        Helpers.check_int "entries" 5 (List.length report.Ord.Quality.entries);
        List.iter
          (fun e ->
            Helpers.check_bool "ratio >= 1" true (e.Ord.Quality.ratio >= 1.0))
          report.Ord.Quality.entries;
        Helpers.check_bool "worst >= exact" true
          (report.Ord.Quality.worst >= report.Ord.Quality.exact));
  ]

let heuristic_soundness name run =
  QCheck.Test.make ~name ~count:50
    (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:5 ()) QCheck.small_int)
    (fun (tt, seed) ->
      let exact = (Fs.run tt).Fs.mincost in
      let { Ord.Chain.mincost = cost; order } = run (Mt.of_truthtable tt) seed in
      (* sound: never below the true optimum, and honest: the reported
         cost matches the reported order *)
      cost >= exact && Ovo_core.Eval_order.mincost tt order = cost)

let props =
  [
    heuristic_soundness "sifting is sound and honest" (fun mt seed ->
        let init = Helpers.perm_of_seed seed (Mt.arity mt) in
        Ord.Sifting.run ~initial:init mt);
    heuristic_soundness "window is sound and honest" (fun mt seed ->
        let init = Helpers.perm_of_seed seed (Mt.arity mt) in
        Ord.Window.run ~initial:init mt);
    heuristic_soundness "random search is sound and honest" (fun mt seed ->
        Ord.Random_search.run ~rng:(Helpers.rng seed) mt);
    heuristic_soundness "annealing is sound and honest" (fun mt seed ->
        Ord.Annealing.run ~rng:(Helpers.rng seed) mt);
    heuristic_soundness "genetic search is sound and honest" (fun mt seed ->
        Ord.Genetic.run ~rng:(Helpers.rng seed) mt);
    heuristic_soundness "exact-block is sound and honest" (fun mt seed ->
        let init = Helpers.perm_of_seed seed (Mt.arity mt) in
        Ord.Exact_block.run ~block:3 ~initial:init mt);
    QCheck.Test.make ~name:"brute force equals FS" ~count:40
      (Helpers.arb_truthtable ~lo:1 ~hi:5 ())
      (fun tt ->
        (Ord.Brute.best (Mt.of_truthtable tt)).Ord.Chain.mincost
        = (Fs.run tt).Fs.mincost);
    QCheck.Test.make ~name:"brute force equals FS (ZDD)" ~count:30
      (Helpers.arb_truthtable ~lo:1 ~hi:4 ())
      (fun tt ->
        (Ord.Brute.best ~kind:Ovo_core.Compact.Zdd (Mt.of_truthtable tt))
          .Ord.Chain.mincost
        = (Fs.run ~kind:Ovo_core.Compact.Zdd tt).Fs.mincost);
    QCheck.Test.make ~name:"annealing never worsens its initial ordering"
      ~count:40
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let init = Helpers.perm_of_seed seed (T.arity tt) in
        let before = Ovo_core.Eval_order.mincost tt init in
        (Ord.Annealing.run ~initial:init ~rng:(Helpers.rng seed)
           (Mt.of_truthtable tt))
          .Ord.Chain.mincost <= before);
    QCheck.Test.make ~name:"sifting never worsens its initial ordering"
      ~count:60
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let init = Helpers.perm_of_seed seed (T.arity tt) in
        let before = Ovo_core.Eval_order.mincost tt init in
        (Ord.Sifting.run ~initial:init (Mt.of_truthtable tt)).Ord.Chain.mincost
        <= before);
    QCheck.Test.make ~name:"exact-block never worsens its initial ordering"
      ~count:40
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let init = Helpers.perm_of_seed seed (T.arity tt) in
        let before = Ovo_core.Eval_order.mincost tt init in
        (Ord.Exact_block.run ~initial:init (Mt.of_truthtable tt)).Ord.Chain.mincost
        <= before);
    QCheck.Test.make ~name:"order crossover yields a permutation" ~count:300
      (QCheck.triple QCheck.small_int QCheck.small_int (QCheck.int_range 0 9))
      (fun (s1, s2, n) ->
        let p1 = Helpers.perm_of_seed s1 n and p2 = Helpers.perm_of_seed s2 n in
        let child = Ord.Genetic.order_crossover (Helpers.rng (s1 + s2)) p1 p2 in
        List.sort compare (Array.to_list child) = List.init n (fun i -> i));
    QCheck.Test.make ~name:"genetic never loses to the identity ordering"
      ~count:30
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let identity_cost =
          Ovo_core.Eval_order.mincost tt (Ord.Perm.identity (T.arity tt))
        in
        (Ord.Genetic.run ~rng:(Helpers.rng seed) (Mt.of_truthtable tt))
          .Ord.Chain.mincost <= identity_cost);
    QCheck.Test.make ~name:"perm move preserves the multiset" ~count:100
      (QCheck.triple QCheck.small_int QCheck.small_int QCheck.small_int)
      (fun (seed, from, to_) ->
        let n = 6 in
        let p = Helpers.perm_of_seed seed n in
        let q = Ord.Perm.move p ~from:(from mod n) ~to_:(to_ mod n) in
        List.sort compare (Array.to_list q) = List.init n (fun i -> i));
  ]

let () =
  Alcotest.run "ordering"
    [ ("unit", unit_tests); ("props", Helpers.qtests props) ]
