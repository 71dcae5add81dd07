(* The Engine abstraction: Par must be a drop-in replacement for Seq —
   identical mincosts, identical orderings, identical DP tables — and
   the two-pass metrics discipline must hold exactly. *)

module E = Ovo_core.Engine
module M = Ovo_core.Metrics
module C = Ovo_core.Compact
module Fs = Ovo_core.Fs
module T = Ovo_boolfun.Truthtable
module B = Ovo_core.Bound
module Sdp = Ovo_core.Subset_dp
module Cancel = Ovo_core.Cancel

let par2 = E.par ~domains:2 ()

exception Boom of int

(* A seed the optimum cannot meet: the sweep must raise Pruned_out. *)
let liar_bound tt =
  let optimum = (Fs.run tt).Fs.mincost in
  B.make
    ~seed:{ B.ub_source = "liar"; ub_value = optimum - 1 }
    (B.counting_lower C.Bdd (Ovo_boolfun.Mtable.of_truthtable tt))

let tables_equal a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun k v acc -> acc && Hashtbl.find_opt b k = Some v)
       a true

let unit_tests =
  [
    Helpers.case "engine of_string/to_string round-trip" (fun () ->
        List.iter
          (fun s ->
            match E.of_string s with
            | Ok e -> Alcotest.(check string) s s (E.to_string e)
            | Error (`Msg m) -> Alcotest.fail m)
          [ "seq"; "par"; "par:4" ];
        Helpers.check_bool "bad engine rejected" true
          (match E.of_string "parallel" with
          | Error _ -> true
          | Ok _ -> false));
    Helpers.case "domain_count resolves and clamps" (fun () ->
        Helpers.check_int "seq" 1 (E.domain_count E.Seq);
        Helpers.check_int "par:3" 3 (E.domain_count (E.par ~domains:3 ()));
        Helpers.check_bool "auto >= 1" true (E.domain_count (E.par ()) >= 1));
    Helpers.case "Engine.map merges worker metrics" (fun () ->
        let m = M.create () in
        let out =
          E.with_pool par2 ~width:10 (fun pool ->
              E.map pool ~metrics:m
                (fun metrics x ->
                  M.add_cells metrics x;
                  x * 2)
                10)
        in
        Alcotest.(check (array int))
          "order preserved"
          (Array.init 10 (fun i -> 2 * i))
          out;
        Helpers.check_int "cells merged" 45 (M.snapshot m).M.s_table_cells);
    Helpers.case "a raising item re-raises on the caller, and the pool lives on"
      (fun () ->
        let m = M.create () in
        E.with_pool (E.par ~domains:3 ()) ~width:100 (fun pool ->
            Helpers.check_int "participants" 3 (E.size pool);
            Alcotest.check_raises "the item's exception" (Boom 37) (fun () ->
                ignore
                  (E.map pool ~metrics:m
                     (fun _ i -> if i = 37 then raise (Boom i) else i)
                     100));
            Alcotest.(check (array int))
              "the next job runs normally" (Array.init 100 Fun.id)
              (E.map pool ~metrics:m (fun _ i -> i) 100)));
    Helpers.case "Seq opens no worker, Par no more than the widest job"
      (fun () ->
        Helpers.check_int "seq" 1 (E.with_pool E.Seq ~width:100 E.size);
        Helpers.check_int "par:8 over 3 items" 3
          (E.with_pool (E.par ~domains:8 ()) ~width:3 E.size);
        Helpers.check_int "par:4 over no items" 1
          (E.with_pool (E.par ~domains:4 ()) ~width:0 E.size));
    (* OCaml 5.1 allows 128 live domains: a pool leaking its worker on
       any abort path would make a later spawn fail inside the loop. *)
    Helpers.case "200 aborted Par solves leak no domain" (fun () ->
        let tt = T.random (Helpers.rng 23) 6 in
        for i = 1 to 200 do
          match i mod 3 with
          | 0 ->
              Alcotest.check_raises "on_layer raises at k=2" (Boom i)
                (fun () ->
                  ignore
                    (Fs.run ~engine:par2
                       ~on_layer:(fun p ->
                         if p.Sdp.p_layer = 2 then raise (Boom i))
                       tt))
          | 1 ->
              let token = Cancel.make () in
              Alcotest.check_raises "cancelled after layer 1" Cancel.Cancelled
                (fun () ->
                  ignore
                    (Fs.run ~engine:par2 ~cancel:token
                       ~on_layer:(fun p ->
                         if p.Sdp.p_layer = 1 then Cancel.cancel token)
                       tt))
          | _ ->
              Helpers.check_bool "unachievable seed" true
                (match Fs.run ~engine:par2 ~prune:(liar_bound tt) tt with
                | exception B.Pruned_out _ -> true
                | _ -> false)
        done;
        let seq = Fs.run tt and par = Fs.run ~engine:par2 tt in
        Helpers.check_int "mincost" seq.Fs.mincost par.Fs.mincost;
        Alcotest.(check (array int)) "order" seq.Fs.order par.Fs.order);
    Helpers.case "the DP table sweep allocates no per-candidate copies"
      (fun () ->
        let n = 6 in
        let tt = T.random (Helpers.rng 21) n in
        let m = M.create () in
        let table = Helpers.all_mincosts ~metrics:m tt in
        Helpers.check_int "entries" (1 lsl n) (Hashtbl.length table);
        let s = M.snapshot m in
        (* probes do all the pricing: one per (K, h) pair *)
        Helpers.check_int "probes = n*2^(n-1)"
          (n * (1 lsl (n - 1)))
          s.M.s_cost_probes;
        (* exactly one winner per non-empty subset is materialised: the
           sweep writes those below the top layer, and rebuilding the
           top layer charges its one replay's last placement.  A winner
           shares its parent's node levels, so none copies a node
           table *)
        Helpers.check_int "copies = 0" 0 s.M.s_node_table_copies;
        Helpers.check_int "winners = 2^n - 1"
          ((1 lsl n) - 1)
          s.M.s_states_materialised;
        (* the point of the refactor: far fewer copies than candidates *)
        Helpers.check_bool "copies < probes" true
          (s.M.s_node_table_copies < s.M.s_cost_probes);
        (* cells keep the Theorem 5 meaning: n * 3^(n-1) *)
        let pow3 = int_of_float (3. ** float_of_int (n - 1)) in
        Helpers.check_int "cells = n*3^(n-1)" (n * pow3) s.M.s_table_cells);
    Helpers.case "Fs.run materialises one state per winner plus reconstruction"
      (fun () ->
        let n = 5 in
        let tt = T.random (Helpers.rng 22) n in
        let m = M.create () in
        let _ = Fs.run ~metrics:m tt in
        let s = M.snapshot m in
        (* complete = costs (2^n - 2 winners, last layer skipped)
           followed by reconstruct (n materialisations) *)
        Helpers.check_int "winners" ((1 lsl n) - 2 + n) s.M.s_states_materialised;
        Helpers.check_int "copies = 0" 0 s.M.s_node_table_copies);
    (* [ovo serve --workers 2] solves on systhreads of one domain, and a
       systhread can be preempted mid-scan, so two scans of one domain
       may overlap: each must still dedup in a pair table of its own. *)
    Helpers.case "systhreads and Par domains never share a pair table"
      (fun () ->
        let tts = Array.init 60 (fun i -> T.random (Helpers.rng (1000 + i)) 10) in
        let answer (r : Fs.result) = (r.Fs.mincost, r.Fs.order) in
        let expected = Array.map (fun tt -> answer (Fs.run tt)) tts in
        let errors = ref [] and lock = Mutex.create () in
        let fail msg = Mutex.protect lock (fun () -> errors := msg :: !errors) in
        let worker engine w =
          for round = 1 to 3 do
            Array.iteri
              (fun i tt ->
                match Fs.run ~engine ~metrics:(M.create ()) tt with
                | r ->
                    if answer r <> expected.(i) then
                      fail (Printf.sprintf "thread %d round %d table %d: wrong answer" w round i)
                | exception e ->
                    fail (Printf.sprintf "thread %d round %d table %d: %s" w round i
                            (Printexc.to_string e)))
              tts
          done
        in
        List.iter Thread.join (List.init 2 (Thread.create (worker E.Seq)));
        Alcotest.(check (list string)) "systhread solves agree with Seq" []
          (List.rev !errors);
        (* each systhread's Par sweeps open pools of their own *)
        List.iter Thread.join (List.init 2 (Thread.create (worker par2)));
        Alcotest.(check (list string)) "concurrent Par solves agree with Seq"
          [] (List.rev !errors);
        Array.iteri
          (fun i tt ->
            Helpers.check_bool (Printf.sprintf "Par table %d" i) true
              (answer (Fs.run ~engine:par2 tt) = expected.(i)))
          tts);
  ]

(* Everything a solve reports that could differ between engines: the
   answer, the merged counters and the checkpoint triples of every
   layer. *)
let observe ~engine ~mode tt =
  let metrics = M.create () in
  let layers = ref [] in
  let on_layer (p : Sdp.progress) = layers := p :: !layers in
  let prune =
    match mode with
    | `Pruned ->
        Some
          (B.make
             ~seed:{ B.ub_source = "oracle"; ub_value = (Fs.run tt).Fs.mincost }
             (B.counting_lower C.Bdd (Ovo_boolfun.Mtable.of_truthtable tt)))
    | `Plain -> None
  in
  let r = Fs.run ~engine ~metrics ?prune ~on_layer tt in
  ( (r.Fs.mincost, r.Fs.order, r.Fs.widths),
    M.snapshot metrics,
    List.rev_map (fun p -> (p.Sdp.p_layer, p.Sdp.p_entries)) !layers,
    Option.map B.states_pruned prune )

let domain_count_prop =
  QCheck.Test.make ~name:"Par with 2, 3, 4 or 8 domains equals Seq" ~count:40
    (QCheck.triple
       (Helpers.arb_truthtable ~lo:1 ~hi:9 ())
       (QCheck.oneofl [ 2; 3; 4; 8 ])
       (QCheck.oneofl [ `Plain; `Pruned ]))
    (fun (tt, domains, mode) ->
      observe ~engine:E.Seq ~mode tt
      = observe ~engine:(E.par ~domains ()) ~mode tt)

let props =
  let run_pair ?kind engine tt = (Fs.run ?kind ~engine tt : Fs.result) in
  [
    QCheck.Test.make ~name:"Par mincost equals Seq (BDD)" ~count:60
      (Helpers.arb_truthtable ~lo:1 ~hi:8 ())
      (fun tt ->
        (run_pair E.Seq tt).Fs.mincost = (run_pair par2 tt).Fs.mincost);
    QCheck.Test.make ~name:"Par mincost equals Seq (ZDD)" ~count:60
      (Helpers.arb_truthtable ~lo:1 ~hi:8 ())
      (fun tt ->
        (run_pair ~kind:C.Zdd E.Seq tt).Fs.mincost
        = (run_pair ~kind:C.Zdd par2 tt).Fs.mincost);
    QCheck.Test.make ~name:"Par ordering is valid and optimal" ~count:60
      (Helpers.arb_truthtable ~lo:1 ~hi:8 ())
      (fun tt ->
        let seq = run_pair E.Seq tt in
        let par = run_pair par2 tt in
        Ovo_core.Eval_order.mincost tt par.Fs.order = seq.Fs.mincost);
    QCheck.Test.make ~name:"Par is deterministic (two runs agree)" ~count:40
      (Helpers.arb_truthtable ~lo:1 ~hi:7 ())
      (fun tt ->
        let a = run_pair par2 tt and b = run_pair par2 tt in
        a.Fs.mincost = b.Fs.mincost && a.Fs.order = b.Fs.order);
    QCheck.Test.make ~name:"Par equals Seq on mtables" ~count:40
      (Helpers.arb_mtable ~lo:1 ~hi:6 ())
      (fun mt ->
        let seq = Fs.run_mtable ~engine:E.Seq mt in
        let par = Fs.run_mtable ~engine:par2 mt in
        seq.Fs.mincost = par.Fs.mincost && seq.Fs.order = par.Fs.order);
    QCheck.Test.make ~name:"all_mincosts tables identical under Par" ~count:40
      (Helpers.arb_truthtable ~lo:1 ~hi:7 ())
      (fun tt ->
        tables_equal
          (Helpers.all_mincosts ~engine:E.Seq tt)
          (Helpers.all_mincosts ~engine:par2 tt));
    QCheck.Test.make ~name:"Par equals Seq for weighted runs" ~count:30
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let st = Helpers.rng seed in
        let weights = Array.init n (fun _ -> 1 + Random.State.int st 5) in
        let seq = Fs.run ~engine:E.Seq ~weights tt in
        let par = Fs.run ~engine:par2 ~weights tt in
        Helpers.weighted_cost ~weights seq = Helpers.weighted_cost ~weights par
        && seq.Fs.order = par.Fs.order);
    QCheck.Test.make ~name:"Par equals Seq for shared minimisation" ~count:20
      (QCheck.pair
         (Helpers.arb_truthtable ~lo:2 ~hi:5 ())
         (Helpers.arb_truthtable ~lo:2 ~hi:5 ()))
      (fun (a, b) ->
        let n = max (T.arity a) (T.arity b) in
        let pad tt =
          T.of_fun n (fun code -> T.eval tt (code land ((1 lsl T.arity tt) - 1)))
        in
        let outs =
          Array.map Ovo_boolfun.Mtable.of_truthtable [| pad a; pad b |]
        in
        let seq = Ovo_core.Shared.minimize ~engine:E.Seq outs in
        let par = Ovo_core.Shared.minimize ~engine:par2 outs in
        seq.Ovo_core.Shared.mincost = par.Ovo_core.Shared.mincost
        && seq.Ovo_core.Shared.order = par.Ovo_core.Shared.order);
    QCheck.Test.make ~name:"metrics identical under Par" ~count:30
      (Helpers.arb_truthtable ~lo:1 ~hi:7 ())
      (fun tt ->
        let ms = M.create () and mp = M.create () in
        let _ = Fs.run ~engine:E.Seq ~metrics:ms tt in
        let _ = Fs.run ~engine:par2 ~metrics:mp tt in
        M.snapshot ms = M.snapshot mp);
    domain_count_prop;
  ]

let () =
  Alcotest.run "engine"
    [ ("unit", unit_tests); ("props", Helpers.qtests props) ]
