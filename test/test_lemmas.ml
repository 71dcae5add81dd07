(* Direct numerical verification of the paper's structural lemmas on
   random functions:

   - Lemma 4:  MINCOST_I = min_{k∈I} MINCOST_<I∖k, k>
   - Lemma 7:  the same with a fixed leading segment
   - Lemma 9:  MINCOST_[n] = min over K of size k of (MINCOST_K +
                MINCOST_<K,[n]∖K>([n]∖K))  for every split size k. *)

module Fs = Ovo_core.Fs
module Fss = Ovo_core.Subset_dp
module C = Ovo_core.Compact
module V = Ovo_core.Varset
module T = Ovo_boolfun.Truthtable

(* counts nobody reads: the kernels take an explicit context *)
let metrics = Ovo_core.Metrics.create ()

let lemma4_holds tt =
  let table = Helpers.all_mincosts tt in
  let base = C.of_truthtable C.Bdd tt in
  let ok = ref true in
  Hashtbl.iter
    (fun iset cost ->
      if not (V.is_empty iset) then begin
        (* recompute each candidate MINCOST_<I∖k, k> via FS* composition *)
        let best = ref max_int in
        V.iter
          (fun k ->
            let without = V.remove k iset in
            let st_without =
              if V.is_empty without then base
              else Fss.complete ~base without
            in
            let st = C.compact ~metrics st_without k in
            if st.C.mincost < !best then best := st.C.mincost)
          iset;
        if !best <> cost then ok := false
      end)
    table;
  !ok

let lemma9_holds ?(kind = C.Bdd) tt =
  let n = T.arity tt in
  let base = C.of_truthtable kind tt in
  let full_run = Fss.run ~base (V.full n) in
  let total = Fss.mincost full_run.Fss.table (V.full n) in
  let ok = ref true in
  for k = 1 to n - 1 do
    let best = ref max_int in
    V.iter_subsets_of_size ~n ~k (fun kset ->
        let st_k = Fss.complete ~base kset in
        let mincost_k = st_k.C.mincost in
        let st_full = Fss.complete ~base:st_k (V.diff (V.full n) kset) in
        (* MINCOST_<K,[n]∖K>([n]∖K) = total of the composed run minus the
           K part *)
        let upper = st_full.C.mincost - mincost_k in
        if mincost_k + upper < !best then best := mincost_k + upper);
    if !best <> total then ok := false
  done;
  n <= 1 || !ok

let props =
  [
    QCheck.Test.make ~name:"Lemma 4 recurrence" ~count:40
      (Helpers.arb_truthtable ~lo:1 ~hi:4 ())
      lemma4_holds;
    QCheck.Test.make ~name:"Lemma 9 divide-and-conquer identity (BDD)"
      ~count:40
      (Helpers.arb_truthtable ~lo:2 ~hi:5 ())
      (fun tt -> lemma9_holds tt);
    QCheck.Test.make ~name:"Lemma 9 divide-and-conquer identity (ZDD)"
      ~count:25
      (Helpers.arb_truthtable ~lo:2 ~hi:4 ())
      (fun tt -> lemma9_holds ~kind:C.Zdd tt);
    QCheck.Test.make
      ~name:"Lemma 7: segment recurrence over a random leading segment"
      ~count:40
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:5 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let st = Helpers.rng seed in
        let i_set = ref V.empty in
        for v = 0 to n - 1 do
          if Random.State.int st 3 = 0 then i_set := V.add v !i_set
        done;
        let j_all = V.diff (V.full n) !i_set in
        QCheck.assume (not (V.is_empty j_all));
        let base0 = C.of_truthtable C.Bdd tt in
        let base =
          if V.is_empty !i_set then base0
          else Fss.complete ~base:base0 !i_set
        in
        (* pick a random non-empty J ⊆ j_all *)
        let j_set = ref V.empty in
        V.iter (fun v -> if Random.State.bool st then j_set := V.add v !j_set) j_all;
        if V.is_empty !j_set then j_set := V.singleton (V.min_elt j_all);
        let lhs = (Fss.complete ~base !j_set).C.mincost in
        (* rhs: min over k ∈ J of MINCOST<I, J∖k, k> *)
        let best = ref max_int in
        V.iter
          (fun k ->
            let without = V.remove k !j_set in
            let st_without =
              if V.is_empty without then base
              else Fss.complete ~base without
            in
            let st' = C.compact ~metrics st_without k in
            if st'.C.mincost < !best then best := st'.C.mincost)
          !j_set;
        lhs = !best);
  ]

let unit_tests =
  [
    Helpers.case "Lemma 9 on the Achilles function" (fun () ->
        Helpers.check_bool "holds" true
          (lemma9_holds (Ovo_boolfun.Families.achilles 3)));
    Helpers.case "Lemma 4 on the multiplexer" (fun () ->
        Helpers.check_bool "holds" true
          (lemma4_holds (Ovo_boolfun.Families.multiplexer ~select:2)));
  ]

let () =
  Alcotest.run "lemmas" [ ("unit", unit_tests); ("props", Helpers.qtests props) ]
