(* The branch-and-bound exact DP: the Bound vocabulary itself, the
   admissibility of the counting lower bounds, and the headline
   guarantee — a sifting-seeded pruned sweep prunes states yet stays
   bit-identical to the unpruned one (cost, size, ordering and widths)
   under Seq and Par, for plain and weighted [Fs.run] and the quantum
   entry point.  An unsound seed must be rejected (Pruned_out), never
   turned into a wrong answer. *)

module B = Ovo_core.Bound
module Fs = Ovo_core.Fs
module Mb = Ovo_core.Membudget
module Vs = Ovo_core.Varset
module Tt = Ovo_boolfun.Truthtable
module Mt = Ovo_boolfun.Mtable
module Seed = Ovo_ordering.Seed
module O = Ovo_quantum.Opt_obdd

(* A trivially admissible lower bound for exercising the context. *)
let zero_lower =
  {
    B.lb_source = "zero";
    remaining = (fun _ -> 0);
    exact_completion = (fun _ -> None);
  }

(* --- the Bound context ------------------------------------------------- *)

let bound_tests =
  [
    Helpers.case "incumbent is a monotone atomic min" (fun () ->
        let b = B.make zero_lower in
        Helpers.check_int "unseeded" max_int (B.incumbent b);
        B.observe b 10;
        Helpers.check_int "first observation" 10 (B.incumbent b);
        B.observe b 15;
        Helpers.check_int "never raised" 10 (B.incumbent b);
        B.observe b 7;
        Helpers.check_int "lowered" 7 (B.incumbent b));
    Helpers.case "seed primes the incumbent" (fun () ->
        let b =
          B.make ~seed:{ B.ub_source = "test"; ub_value = 42 } zero_lower
        in
        Helpers.check_int "seeded" 42 (B.incumbent b);
        Helpers.check_bool "source" true (B.source b = "zero"));
    Helpers.case "pruned counter accumulates" (fun () ->
        let b = B.make zero_lower in
        Helpers.check_int "fresh" 0 (B.states_pruned b);
        B.note_pruned b 3;
        B.note_pruned b 4;
        Helpers.check_int "3+4" 7 (B.states_pruned b));
    Helpers.case "layer trajectory and best_lower" (fun () ->
        let b =
          B.make ~seed:{ B.ub_source = "test"; ub_value = 50 } zero_lower
        in
        Helpers.check_int "no layers yet" 0 (B.best_lower b);
        B.record_layer b
          {
            B.ls_layer = 1;
            ls_kept = 4;
            ls_pruned = 0;
            ls_lower = 10;
            ls_incumbent = 50;
          };
        B.record_layer b
          {
            B.ls_layer = 2;
            ls_kept = 2;
            ls_pruned = 2;
            ls_lower = 23;
            ls_incumbent = 48;
          };
        Helpers.check_int "two layers" 2 (List.length (B.layer_stats b));
        Helpers.check_int "last layer's lower" 23 (B.best_lower b);
        let lower, upper = B.anytime b in
        Helpers.check_int "anytime lower" 23 lower;
        Helpers.check_int "anytime upper" 50 upper);
    Helpers.case "check_final rejects an unachievable seed" (fun () ->
        let b =
          B.make ~seed:{ B.ub_source = "bogus"; ub_value = 5 } zero_lower
        in
        B.check_final b 5;
        Helpers.check_bool "cost above seed" true
          (match B.check_final b 6 with
          | exception B.Pruned_out _ -> true
          | () -> false));
    Helpers.case "exact_completion-only contexts still tighten" (fun () ->
        let lower =
          { zero_lower with B.exact_completion = (fun _ -> Some 3) }
        in
        let b = B.make lower in
        Helpers.check_int "exact hook" (Some 3 |> Option.get)
          (Option.get (B.exact_completion b Vs.empty)));
  ]

(* --- admissibility of the counting bounds ------------------------------ *)

let admissible_prop kind name =
  QCheck.Test.make
    ~name:(Printf.sprintf "counting bound is admissible (%s)" name)
    ~count:120
    (Helpers.arb_truthtable ~lo:1 ~hi:4 ())
    (fun tt ->
      let n = Tt.arity tt in
      let lb = B.counting_lower kind (Mt.of_truthtable tt) in
      lb.B.remaining (Vs.full n) <= Helpers.brute_mincost ~kind tt)

let weighted_admissible_prop =
  QCheck.Test.make ~name:"weighted counting bound is admissible" ~count:80
    (Helpers.arb_truthtable ~lo:1 ~hi:4 ())
    (fun tt ->
      let n = Tt.arity tt in
      let weights = Array.init n (fun i -> (i * 7) mod 5) in
      let lb =
        B.counting_lower ~weights Ovo_core.Compact.Bdd (Mt.of_truthtable tt)
      in
      let r = Fs.run ~weights tt in
      lb.B.remaining (Vs.full n) <= Helpers.weighted_cost ~weights r)

(* --- pruned ≡ unpruned ------------------------------------------------- *)

let same_result (a : Fs.result) (b : Fs.result) =
  a.Fs.mincost = b.Fs.mincost && a.Fs.size = b.Fs.size
  && a.Fs.order = b.Fs.order && a.Fs.widths = b.Fs.widths

let identical_prop name engine =
  QCheck.Test.make
    ~name:(Printf.sprintf "pruning never changes the answer (%s)" name)
    ~count:60
    (Helpers.arb_truthtable ~lo:1 ~hi:7 ())
    (fun tt ->
      let plain = Fs.run ~engine tt in
      let b = Seed.bound tt in
      let pruned = Fs.run ~engine ~prune:b tt in
      same_result plain pruned)

let identical_zdd_prop =
  QCheck.Test.make ~name:"pruning never changes the answer (Zdd)" ~count:60
    (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
    (fun tt ->
      let kind = Ovo_core.Compact.Zdd in
      let plain = Fs.run ~kind tt in
      let pruned = Fs.run ~kind ~prune:(Seed.bound ~kind tt) tt in
      same_result plain pruned)

let tight_seed_prop =
  QCheck.Test.make ~name:"a tight seed (= optimum) still yields the optimum"
    ~count:60
    (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
    (fun tt ->
      let plain = Fs.run tt in
      let b =
        B.make
          ~seed:{ B.ub_source = "oracle"; ub_value = plain.Fs.mincost }
          (B.counting_lower Ovo_core.Compact.Bdd (Mt.of_truthtable tt))
      in
      let pruned = Fs.run ~prune:b tt in
      same_result plain pruned)

let unsound_seed_prop =
  QCheck.Test.make
    ~name:"an unachievable seed (optimum - 1) raises Pruned_out" ~count:60
    (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
    (fun tt ->
      let plain = Fs.run tt in
      let b =
        B.make
          ~seed:{ B.ub_source = "liar"; ub_value = plain.Fs.mincost - 1 }
          (B.counting_lower Ovo_core.Compact.Bdd (Mt.of_truthtable tt))
      in
      match Fs.run ~prune:b tt with
      | exception B.Pruned_out _ -> true
      | _ -> false)

let weighted_identical_prop =
  QCheck.Test.make ~name:"weighted pruning never changes the answer"
    ~count:40
    (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
    (fun tt ->
      let n = Tt.arity tt in
      let weights = Array.init n (fun i -> (i * 7) mod 5) in
      let plain = Fs.run ~weights tt in
      let b = Seed.weighted_bound ~weights (Mt.of_truthtable tt) in
      let pruned = Fs.run ~weights ~prune:b tt in
      same_result plain pruned)

(* --- quantum tower sharing one bound and budget ------------------------ *)

(* A pruned composition against one shared bound and one shared budget
   answers as the plain one does, and its sub-sweeps — the ones pruned
   out included — hand their tables back, so the shared peak stays
   within a full sweep's table. *)
let shared_bound_and_budget sub seed () =
  let n = 6 in
  let tt = Tt.random (Helpers.rng seed) n in
  let mt = Mt.of_truthtable tt in
  let plain, _ = O.minimize ~ctx:(O.make_ctx ()) (sub ()) mt in
  let mb = Mb.create ~budget_bytes:(Mb.estimate ~n) () in
  let ctx = O.make_ctx ~membudget:mb ~bound:(Seed.bound tt) () in
  let pruned, _ = O.minimize ~ctx (sub ()) mt in
  Helpers.check_int "mincost" plain.Fs.mincost pruned.Fs.mincost;
  Helpers.check_bool "order" true (pruned.Fs.order = plain.Fs.order);
  Helpers.check_bool "peak within one full table" true
    (Mb.peak_resident_bytes mb <= Mb.table_bytes ~n)

let quantum_tests =
  [
    Helpers.case "qdc with a shared bound and budget is unchanged"
      (shared_bound_and_budget O.theorem10 77);
    Helpers.case "tower with a shared bound and budget is unchanged"
      (shared_bound_and_budget (fun () -> O.tower ~depth:2) 78);
    Helpers.case "prune cannot resume from a checkpoint" (fun () ->
        let tt = Tt.random (Helpers.rng 79) 5 in
        Helpers.check_bool "rejected" true
          (match
             Fs.run ~prune:(Seed.bound tt)
               ~resume:[ { Ovo_core.Subset_dp.p_layer = 1; p_entries = [||] } ]
               tt
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

let props =
  [
    admissible_prop Ovo_core.Compact.Bdd "Bdd";
    admissible_prop Ovo_core.Compact.Zdd "Zdd";
    weighted_admissible_prop;
    identical_prop "Seq" Ovo_core.Engine.Seq;
    identical_prop "Par" (Ovo_core.Engine.Par { domains = 3 });
    identical_zdd_prop;
    tight_seed_prop;
    unsound_seed_prop;
    weighted_identical_prop;
  ]

let () =
  Alcotest.run "prune"
    [
      ("bound", bound_tests);
      ("quantum", quantum_tests);
      ("props", Helpers.qtests props);
    ]
