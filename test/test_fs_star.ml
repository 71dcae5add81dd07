module Fs = Ovo_core.Fs
module Fss = Ovo_core.Subset_dp
module B = Ovo_core.Bound
module C = Ovo_core.Compact
module V = Ovo_core.Varset
module T = Ovo_boolfun.Truthtable

(* counts nobody reads: the kernels take an explicit context *)
let metrics = Ovo_core.Metrics.create ()

(* Brute-force MINCOST<I, K> reference: minimum node count of the bottom
   |I|+|K| levels over orderings that list I (in any internal order)
   first and then K. *)
let brute_seg_mincost ?(kind = C.Bdd) tt i_set k_set =
  let base = C.of_truthtable kind tt in
  let best = ref max_int in
  List.iter
    (fun pi ->
      List.iter
        (fun pk ->
          let st = C.compact_chain ~metrics base (Array.of_list (pi @ pk)) in
          if st.C.mincost < !best then best := st.C.mincost)
        (Helpers.permutations (V.elements k_set)))
    (Helpers.permutations (V.elements i_set));
  !best

let unit_tests =
  [
    Helpers.case "full run from empty base equals FS" (fun () ->
        let tt = Ovo_boolfun.Families.hidden_weighted_bit 5 in
        let base = C.of_truthtable C.Bdd tt in
        let st = Fss.complete ~base (C.free base) in
        Helpers.check_int "mincost" (Fs.run tt).Fs.mincost st.C.mincost);
    Helpers.case "upto stops at the requested layer" (fun () ->
        let tt = Ovo_boolfun.Families.parity 5 in
        let base = C.of_truthtable C.Bdd tt in
        let t = Fss.run ~upto:2 ~base (C.free base) in
        Helpers.check_int "layer size" 10 (Hashtbl.length t.Fss.layer);
        (* every subset of size <= 2 has a MINCOST, none of size 3 *)
        for k = 0 to 2 do
          V.iter_subsets_of_size ~n:5 ~k (fun ksub ->
              Helpers.check_bool "summary" true
                (Fss.mincost t.Fss.table ksub >= 0))
        done;
        Helpers.check_bool "beyond upto" true
          (match Fss.mincost t.Fss.table (V.of_list [ 0; 1; 2 ]) with
          | exception Invalid_argument _ -> true
          | _ -> false);
        Hashtbl.iter
          (fun k _ -> Helpers.check_int "card" 2 (V.cardinal k))
          t.Fss.layer);
    Helpers.case "j_set must be free" (fun () ->
        let tt = T.of_string "0110" in
        let base = C.compact ~metrics (C.of_truthtable C.Bdd tt) 0 in
        Alcotest.check_raises "not free"
          (Invalid_argument "Subset_dp.run: J not free in the base state")
          (fun () -> ignore (Fss.run ~base (V.of_list [ 0 ]))));
    Helpers.case "bad upto rejected" (fun () ->
        let tt = T.of_string "0110" in
        let base = C.of_truthtable C.Bdd tt in
        Alcotest.check_raises "upto"
          (Invalid_argument "Subset_dp.run: bad upto")
          (fun () -> ignore (Fss.run ~upto:3 ~base (V.full 2))));
    Helpers.case "empty J returns the base" (fun () ->
        let tt = T.of_string "0110" in
        let base = C.of_truthtable C.Bdd tt in
        let t = Fss.run ~base V.empty in
        Helpers.check_int "mincost" 0 (Fss.mincost t.Fss.table V.empty);
        Helpers.check_bool "state" true (Fss.state_of t V.empty == base));
    Helpers.case "accessors raise Pruned_out on pruned subsets" (fun () ->
        (* seeded with the optimum, the sweep drops every subset that
           heads no optimal ordering; what it keeps is the unpruned run *)
        let tt = Ovo_boolfun.Families.hidden_weighted_bit 8 in
        let n = T.arity tt and upto = 4 in
        let base = C.of_truthtable C.Bdd tt in
        let b =
          B.make
            ~seed:{ B.ub_source = "optimum"; ub_value = (Fs.run tt).Fs.mincost }
            (B.counting_lower C.Bdd (Ovo_boolfun.Mtable.of_truthtable tt))
        in
        let pruned = Fss.run ~prune:b ~upto ~base (C.free base) in
        let plain = Fss.run ~upto ~base (C.free base) in
        let is_pruned f =
          match f () with exception B.Pruned_out _ -> true | _ -> false
        in
        let dropped = ref 0 and dropped_last = ref 0 in
        for k = 0 to upto do
          V.iter_subsets_of_size ~n ~k (fun ksub ->
              if is_pruned (fun () -> Fss.mincost pruned.Fss.table ksub)
              then begin
                incr dropped;
                if k = upto then begin
                  incr dropped_last;
                  Helpers.check_bool "state pruned" true
                    (is_pruned (fun () -> Fss.state_of pruned ksub))
                end
              end
              else begin
                Helpers.check_int "kept mincost"
                  (Fss.mincost plain.Fss.table ksub)
                  (Fss.mincost pruned.Fss.table ksub);
                if k = upto then
                  Helpers.check_bool "kept state" true
                    (C.order (Fss.state_of pruned ksub)
                     = C.order (Fss.state_of plain ksub))
              end)
        done;
        Helpers.check_int "states_pruned counts the dropped subsets" !dropped
          (B.states_pruned b);
        Helpers.check_bool "a final-layer subset was pruned" true
          (!dropped_last > 0);
        Helpers.check_bool "outside the final layer" true
          (match Fss.state_of pruned (V.of_list [ 0 ]) with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

let props =
  [
    QCheck.Test.make
      ~name:"segment-constrained optimum matches brute force (Lemma 8)"
      ~count:60
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:5 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let st = Helpers.rng seed in
        (* random disjoint I, J *)
        let i_set = ref V.empty and j_set = ref V.empty in
        for v = 0 to n - 1 do
          match Random.State.int st 3 with
          | 0 -> i_set := V.add v !i_set
          | 1 -> j_set := V.add v !j_set
          | _ -> ()
        done;
        QCheck.assume (not (V.is_empty !j_set));
        (* base: optimal over I via a full FS* from scratch *)
        let base0 = C.of_truthtable C.Bdd tt in
        let base =
          if V.is_empty !i_set then base0
          else Fss.complete ~base:base0 !i_set
        in
        let st' = Fss.complete ~base !j_set in
        st'.C.mincost = brute_seg_mincost tt !i_set !j_set);
    QCheck.Test.make ~name:"composing two FS* runs equals one (consistency)"
      ~count:60
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:5 ()) QCheck.small_int)
      (fun (tt, seed) ->
        (* MINCOST<(A,B)> computed as FS*(FS*(∅,A),B) must match the brute
           force over segment-constrained orders *)
        let n = T.arity tt in
        let st = Helpers.rng seed in
        let a = ref V.empty and b = ref V.empty in
        for v = 0 to n - 1 do
          if Random.State.bool st then a := V.add v !a else b := V.add v !b
        done;
        QCheck.assume (not (V.is_empty !a) && not (V.is_empty !b));
        let base0 = C.of_truthtable C.Bdd tt in
        let sa = Fss.complete ~base:base0 !a in
        let sab = Fss.complete ~base:sa !b in
        sab.C.mincost = brute_seg_mincost tt !a !b);
    QCheck.Test.make ~name:"layer states carry consistent orders" ~count:60
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:5 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let k = 1 + (seed mod n) in
        let base = C.of_truthtable C.Bdd tt in
        let t = Fss.run ~upto:k ~base (C.free base) in
        let ok = ref true in
        Hashtbl.iter
          (fun kset (st : C.state) ->
            (* the achieved suborder must be a permutation of K and the
               state's cost must equal re-evaluating that suborder *)
            let order = Array.of_list (C.order st) in
            if V.of_list (Array.to_list order) <> kset then ok := false;
            let re = C.compact_chain ~metrics base order in
            if re.C.mincost <> st.C.mincost then ok := false)
          t.Fss.layer;
        !ok);
    QCheck.Test.make ~name:"ZDD segments match brute force" ~count:40
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:4 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let st = Helpers.rng seed in
        let i_set = ref V.empty in
        for v = 0 to n - 1 do
          if Random.State.bool st then i_set := V.add v !i_set
        done;
        let j_set = V.diff (V.full n) !i_set in
        QCheck.assume (not (V.is_empty j_set));
        let base0 = C.of_truthtable C.Zdd tt in
        let base =
          if V.is_empty !i_set then base0
          else Fss.complete ~base:base0 !i_set
        in
        let s = Fss.complete ~base j_set in
        s.C.mincost = brute_seg_mincost ~kind:C.Zdd tt !i_set j_set);
  ]

let () =
  Alcotest.run "fs_star"
    [ ("unit", unit_tests); ("props", Helpers.qtests props) ]
