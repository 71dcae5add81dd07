module S = Ovo_core.Shared
module C = Ovo_core.Compact
module T = Ovo_boolfun.Truthtable

(* counts nobody reads: the kernels take an explicit context *)
let metrics = Ovo_core.Metrics.create ()

(* brute-force shared optimum: chain every permutation over the shared
   multi-table state *)
let of_truthtables kind tts =
  S.initial kind (Array.map Ovo_boolfun.Mtable.of_truthtable tts)

let minimize ?kind tts =
  S.minimize ?kind (Array.map Ovo_boolfun.Mtable.of_truthtable tts)

let brute_shared ?(kind = C.Bdd) tts =
  let base = of_truthtables kind tts in
  let n = T.arity tts.(0) in
  List.fold_left
    (fun acc order -> min acc (C.compact_chain ~metrics base order).C.mincost)
    max_int (Helpers.all_orders n)

(* The reference for multi-rooted compaction: one table per root,
   scanned root by root into one pair set, with the same charges.  The
   folded state, every root's table back to back in one, must match it
   table block by table block, level by level and count by count. *)
type per_root = {
  tables : int array array;
  free : Ovo_core.Varset.t;
  levels : C.level list;
  mincost : int;
  next_id : int;
}

let per_root_initial mts =
  {
    tables =
      Array.map
        (fun mt ->
          Array.init
            (1 lsl Ovo_boolfun.Mtable.arity mt)
            (Ovo_boolfun.Mtable.eval mt))
        mts;
    free = Ovo_core.Varset.full (Ovo_boolfun.Mtable.arity mts.(0));
    levels = [];
    mincost = 0;
    next_id = Ovo_boolfun.Mtable.num_values mts.(0);
  }

let per_root_compact ~metrics ~materialise kind st i =
  let module Pt = Ovo_core.Pair_table in
  let module M = Ovo_core.Metrics in
  let pt =
    Pt.claim ~zdd:(kind = C.Zdd)
      ~bit:(Ovo_core.Varset.rank_in i st.free)
      ~next_id:st.next_id
      ~cells:(Array.length st.tables.(0) / 2 * Array.length st.tables)
  in
  let tables = Array.map (Pt.compact pt) st.tables in
  let width = Pt.width pt in
  let levels =
    if width = 0 then st.levels
    else { C.var = i; first = st.next_id; pairs = Pt.pairs pt } :: st.levels
  in
  Pt.release pt;
  M.add_nodes metrics width;
  if materialise then M.add_state metrics
  else begin
    M.add_cells metrics (Array.length tables.(0) * Array.length tables);
    M.add_compaction metrics
  end;
  {
    tables;
    free = Ovo_core.Varset.remove i st.free;
    levels;
    mincost = st.mincost + width;
    next_id = st.next_id + width;
  }

let gen_folding =
  QCheck.Gen.(
    int_range 1 6 >>= fun n ->
    int_range 1 4 >>= fun m ->
    int_range 2 3 >>= fun values ->
    let gen_mt =
      array_size (return (1 lsl n)) (int_range 0 (values - 1)) >|= fun cells ->
      Ovo_boolfun.Mtable.of_array ~values cells
    in
    quad (array_size (return m) gen_mt) (oneofl [ C.Bdd; C.Zdd ]) bool
      (pair (int_range 0 n) nat)
    >|= fun (mts, kind, materialise, (len, seed)) ->
    (mts, kind, materialise, Array.sub (Helpers.perm_of_seed seed n) 0 len))

let arb_folding =
  QCheck.make
    ~print:(fun (mts, kind, materialise, chain) ->
      Printf.sprintf "%s %s %s chain [%s]"
        (String.concat "/"
           (Array.to_list
              (Array.map (Format.asprintf "%a" Ovo_boolfun.Mtable.pp) mts)))
        (match kind with C.Bdd -> "bdd" | C.Zdd -> "zdd")
        (if materialise then "materialise" else "compact")
        (String.concat " " (Array.to_list (Array.map string_of_int chain))))
    gen_folding

let folding_props =
  [
    QCheck.Test.make
      ~name:"folded tables compact exactly as one table per root" ~count:300
      arb_folding
      (fun (mts, kind, materialise, chain) ->
        let mf = Ovo_core.Metrics.create () and mr = Ovo_core.Metrics.create () in
        let step = if materialise then C.materialise else C.compact in
        let folded =
          Array.fold_left (fun st i -> step ~metrics:mf st i) (S.initial kind mts)
            chain
        in
        let reference =
          Array.fold_left
            (fun st i -> per_root_compact ~metrics:mr ~materialise kind st i)
            (per_root_initial mts) chain
        in
        let block = Array.length reference.tables.(0) in
        C.roots folded = Array.length mts
        && Array.for_all Fun.id
             (Array.mapi
                (fun j table -> Array.sub folded.C.table (j * block) block = table)
                reference.tables)
        && folded.C.levels = reference.levels
        && folded.C.mincost = reference.mincost
        && folded.C.next_id = reference.next_id
        && Ovo_core.Metrics.snapshot mf = Ovo_core.Metrics.snapshot mr);
  ]

let gen_pair =
  QCheck.Gen.(
    int_range 1 5 >>= fun n ->
    let table = string_size ~gen:(oneofl [ '0'; '1' ]) (return (1 lsl n)) in
    pair table table >|= fun (a, b) ->
    [| T.of_string a; T.of_string b |])

let arb_pair =
  QCheck.make
    ~print:(fun tts ->
      String.concat "/" (Array.to_list (Array.map T.to_string tts)))
    gen_pair

let unit_tests =
  [
    Helpers.case "sharing counts a common subfunction once" (fun () ->
        (* f0 = x0 & x1, f1 = (x0 & x1) | x2: the x0&x1 sub-diagram is
           shared, so the shared count is below the sum of the parts *)
        let f0 = T.( &&& ) (T.var 3 0) (T.var 3 1) in
        let f1 = T.( ||| ) f0 (T.var 3 2) in
        let r = minimize [| f0; f1 |] in
        let alone0 = (Ovo_core.Fs.run f0).Ovo_core.Fs.mincost in
        let alone1 = (Ovo_core.Fs.run f1).Ovo_core.Fs.mincost in
        Helpers.check_bool "shared < sum" true (r.S.mincost < alone0 + alone1);
        Helpers.check_bool "shared >= max" true
          (r.S.mincost >= max alone0 alone1));
    Helpers.case "identical roots cost as one" (fun () ->
        let f = Ovo_boolfun.Families.multiplexer ~select:2 in
        let single = (Ovo_core.Fs.run f).Ovo_core.Fs.mincost in
        let r = minimize [| f; f; f |] in
        Helpers.check_int "same as single" single r.S.mincost);
    Helpers.case "single root equals plain FS" (fun () ->
        let f = Ovo_boolfun.Families.hidden_weighted_bit 5 in
        let r = minimize [| f |] in
        Helpers.check_int "mincost" (Ovo_core.Fs.run f).Ovo_core.Fs.mincost
          r.S.mincost);
    Helpers.case "2-bit multiplier shared optimum" (fun () ->
        let outputs =
          Array.init 4 (fun j ->
              T.of_fun 4 (fun code ->
                  ((code land 3) * (code lsr 2)) land (1 lsl j) <> 0))
        in
        let r = minimize outputs in
        Helpers.check_int "matches brute force" (brute_shared outputs)
          r.S.mincost;
        Helpers.check_bool "valid" true
          (S.check r.S.state
             (Array.map Ovo_boolfun.Mtable.of_truthtable outputs)));
    Helpers.case "roots of complete state" (fun () ->
        let f0 = T.var 2 0 and f1 = T.const 2 true in
        let r = minimize [| f0; f1 |] in
        let roots = S.roots r.S.state in
        Helpers.check_int "two roots" 2 (Array.length roots);
        Helpers.check_int "constant root is the terminal" 1 roots.(1));
    Helpers.case "single-root readers refuse a state with two roots" (fun () ->
        let st = (minimize [| T.var 2 0; T.var 2 1 |]).S.state in
        Alcotest.check_raises "Compact.root"
          (Invalid_argument "Compact.root: state has several roots") (fun () ->
            ignore (C.root st));
        Alcotest.check_raises "Diagram.of_state"
          (Invalid_argument "Diagram.of_state: state has several roots")
          (fun () -> ignore (Ovo_core.Diagram.of_state st)));
    Helpers.case "mismatched arities rejected" (fun () ->
        Alcotest.check_raises "arity" (Invalid_argument "Shared.initial: arity mismatch")
          (fun () ->
            ignore (of_truthtables C.Bdd [| T.var 2 0; T.var 3 0 |])));
    Helpers.case "empty root array rejected" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Shared.initial: need at least one root") (fun () ->
            ignore (of_truthtables C.Bdd [||])));
    Helpers.case "to_dot emits all roots" (fun () ->
        let r = minimize [| T.var 2 0; T.var 2 1 |] in
        let dot = S.to_dot r.S.state in
        Helpers.check_bool "r0" true
          (String.length dot > 0
          &&
          let has needle =
            let rec go i =
              i + String.length needle <= String.length dot
              && (String.sub dot i (String.length needle) = needle || go (i + 1))
            in
            go 0
          in
          has "r0" && has "r1"));
  ]

let props =
  [
    QCheck.Test.make ~name:"shared optimum equals brute force" ~count:60
      arb_pair
      (fun tts -> (minimize tts).S.mincost = brute_shared tts);
    QCheck.Test.make ~name:"shared optimum equals brute force (ZDD)" ~count:40
      arb_pair
      (fun tts ->
        (minimize ~kind:C.Zdd tts).S.mincost = brute_shared ~kind:C.Zdd tts);
    QCheck.Test.make ~name:"every root evaluates to its function" ~count:60
      arb_pair
      (fun tts ->
        let r = minimize tts in
        S.check r.S.state (Array.map Ovo_boolfun.Mtable.of_truthtable tts));
    QCheck.Test.make
      ~name:"shared cost brackets: >= each single optimum, <= sum under its own order"
      ~count:60 arb_pair
      (fun tts ->
        let r = minimize tts in
        let singles =
          Array.to_list
            (Array.map (fun tt -> (Ovo_core.Fs.run tt).Ovo_core.Fs.mincost) tts)
        in
        (* lower bound: the shared diagram contains each root's reduced
           diagram under the shared order, which is at least that root's
           own optimum; upper bound: node sharing can only help relative
           to keeping the per-root diagrams separate at the same order *)
        let per_root_at_shared_order =
          Array.to_list
            (Array.map
               (fun tt -> Ovo_core.Eval_order.mincost tt r.S.order)
               tts)
        in
        r.S.mincost >= List.fold_left max 0 singles
        && r.S.mincost <= List.fold_left ( + ) 0 per_root_at_shared_order);
    QCheck.Test.make ~name:"order returned achieves the reported cost"
      ~count:60 arb_pair
      (fun tts ->
        let r = minimize tts in
        let re = C.compact_chain ~metrics (of_truthtables C.Bdd tts) r.S.order in
        re.C.mincost = r.S.mincost);
  ]

let diagram_props =
  [
    QCheck.Test.make ~name:"per-root diagram views are valid and shared"
      ~count:60 arb_pair
      (fun tts ->
        let r = minimize tts in
        let views = S.diagrams r.S.state in
        Array.length views = Array.length tts
        && Array.for_all2
             (fun d tt -> Ovo_core.Diagram.check_tt d tt)
             views tts);
    QCheck.Test.make
      ~name:"per-root views serialize and reload independently" ~count:40
      arb_pair
      (fun tts ->
        let r = minimize tts in
        let views = S.diagrams r.S.state in
        Array.for_all2
          (fun d tt ->
            Ovo_core.Diagram.check_tt
              (Ovo_core.Diagram.deserialize (Ovo_core.Diagram.serialize d))
              tt)
          views tts);
  ]

let () =
  Alcotest.run "shared"
    [
      ("unit", unit_tests);
      ("props", Helpers.qtests props);
      ("diagrams", Helpers.qtests diagram_props);
      ("folding", Helpers.qtests folding_props);
    ]
