module C = Ovo_core.Compact
module T = Ovo_boolfun.Truthtable

(* Reference width computation straight from the definition: the number
   of nodes labeled [v] in B(f, pi) is the number of distinct
   subfunctions of [f] obtained by restricting the variables read before
   [v] (those above it), counted only when they essentially depend on [v]
   (BDD rule) or have a non-zero 1-cofactor (ZDD rule). *)
let reference_width ~kind tt ~above ~v =
  let rec restrictions f vars =
    match vars with
    | [] -> [ f ]
    | x :: rest ->
        let f0, f1 = T.cofactors f x in
        restrictions f0 rest @ restrictions f1 rest
  in
  (* restrict in descending variable order so indices stay valid *)
  let above_desc = List.sort (fun a b -> compare b a) above in
  let subs = restrictions tt above_desc in
  (* after removing |above| higher variables, [v]'s index shifts down by
     the number of removed variables below it — none, since we only
     restrict variables above... they may be numerically below. *)
  let shift = List.length (List.filter (fun x -> x < v) above) in
  let v' = v - shift in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun g ->
      let keep =
        match kind with
        | C.Bdd -> T.depends_on g v'
        | C.Zdd -> T.is_const (T.restrict g v' true) <> Some false
      in
      if keep then Hashtbl.replace seen (T.to_string g) ())
    subs;
  Hashtbl.length seen

let widths_of_chain ~kind tt order =
  let base = C.of_truthtable kind tt in
  let widths = Array.make (Array.length order) 0 in
  let st = ref base in
  Array.iteri
    (fun i v ->
      let next = C.compact !st v in
      widths.(i) <- C.width_of_last ~before:!st ~after:next;
      st := next)
    order;
  widths

let check_widths_against_reference ~kind tt order =
  let n = T.arity tt in
  let widths = widths_of_chain ~kind tt order in
  let ok = ref true in
  Array.iteri
    (fun i v ->
      let above = Array.to_list (Array.sub order (i + 1) (n - i - 1)) in
      if widths.(i) <> reference_width ~kind tt ~above ~v then ok := false)
    order;
  !ok

let unit_tests =
  [
    Helpers.case "initial state is the truth table" (fun () ->
        let st = C.of_truthtable C.Bdd (T.of_string "0110") in
        Helpers.check_int "mincost" 0 st.C.mincost;
        Helpers.check_int "table len" 4 (Array.length st.C.table);
        Alcotest.(check (list int)) "cells" [ 0; 1; 1; 0 ]
          (Array.to_list st.C.table));
    Helpers.case "compact xor bottom variable" (fun () ->
        let st = C.of_truthtable C.Bdd (T.of_string "0110") in
        let st1 = C.compact st 1 in
        (* one x1 node: the two cells are (x1) and (!x1), both depend *)
        Helpers.check_int "mincost" 2 st1.C.mincost;
        Helpers.check_int "table len" 2 (Array.length st1.C.table));
    Helpers.case "compact to completion" (fun () ->
        let st = C.of_truthtable C.Bdd (T.of_string "0110") in
        let st2 = C.compact_chain st [| 0; 1 |] in
        Helpers.check_bool "complete" true (C.is_complete st2);
        Helpers.check_int "xor has 3 nodes" 3 st2.C.mincost;
        Helpers.check_bool "root is a node" true (C.root st2 >= 2));
    Helpers.case "order is recorded read-last-first" (fun () ->
        let st = C.of_truthtable C.Bdd (T.of_string "01101001") in
        let st' = C.compact_chain st [| 2; 0; 1 |] in
        Alcotest.(check (list int)) "order" [ 2; 0; 1 ] (C.order st'));
    Helpers.case "free shrinks" (fun () ->
        let st = C.of_truthtable C.Bdd (T.of_string "01101001") in
        let st' = C.compact st 1 in
        Alcotest.(check (list int)) "free" [ 0; 2 ]
          (Ovo_core.Varset.elements (C.free st')));
    Helpers.case "double compaction of a variable rejected" (fun () ->
        let st = C.compact (C.of_truthtable C.Bdd (T.of_string "0110")) 0 in
        Alcotest.check_raises "again"
          (Invalid_argument "Compact.compact: variable already assigned")
          (fun () -> ignore (C.compact st 0)));
    Helpers.case "variable out of range rejected" (fun () ->
        let st = C.of_truthtable C.Bdd (T.of_string "0110") in
        Alcotest.check_raises "range"
          (Invalid_argument "Compact.compact: variable out of range")
          (fun () -> ignore (C.compact st 2)));
    Helpers.case "root of incomplete state rejected" (fun () ->
        let st = C.of_truthtable C.Bdd (T.of_string "0110") in
        Alcotest.check_raises "incomplete"
          (Invalid_argument "Compact.root: state not complete") (fun () ->
            ignore (C.root st)));
    Helpers.case "zdd rule skips zero hi-cofactors" (fun () ->
        (* f = !x0: under ZDD rule the x0 node is suppressed *)
        let st = C.of_truthtable C.Zdd (T.of_string "10") in
        let st' = C.compact st 0 in
        Helpers.check_int "suppressed" 0 st'.C.mincost);
    Helpers.case "input state is not mutated" (fun () ->
        let st = C.of_truthtable C.Bdd (T.of_string "0110") in
        let _ = C.compact st 0 in
        Helpers.check_int "mincost unchanged" 0 st.C.mincost;
        Helpers.check_int "table unchanged" 4 (Array.length st.C.table));
    Helpers.case "width probe allocates at most 4 words per call" (fun () ->
        let tt = T.random (Helpers.rng 12) 12 in
        let st = C.compact_chain (C.of_truthtable C.Bdd tt) [| 0; 1; 2; 3 |] in
        let metrics = Ovo_core.Metrics.create () in
        let free = Array.init 8 (fun j -> 4 + j) in
        (* warm up: grow this domain's pair table to the state's scans *)
        Array.iter (fun i -> ignore (C.width_if_compacted ~metrics st i)) free;
        let calls = 1000 in
        let before = Gc.minor_words () in
        for c = 0 to calls - 1 do
          ignore (C.width_if_compacted ~metrics st free.(c mod 8))
        done;
        let words = (Gc.minor_words () -. before) /. float_of_int calls in
        Helpers.check_bool
          (Printf.sprintf "%.2f minor words per probe" words)
          true (words <= 4.0));
    Helpers.case "multi-terminal compaction" (fun () ->
        let mt = Ovo_boolfun.Mtable.of_array ~values:3 [| 0; 1; 2; 1 |] in
        let st = C.compact_chain (C.initial C.Bdd mt) [| 0; 1 |] in
        Helpers.check_bool "complete" true (C.is_complete st);
        (* level x0: subfunctions (0,1) and (2,1): 2 nodes; level x1: 1 *)
        Helpers.check_int "mincost" 3 st.C.mincost);
  ]

let props =
  [
    QCheck.Test.make ~name:"BDD chain widths match subfunction counts"
      ~count:150
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:5 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let order = Helpers.perm_of_seed seed (T.arity tt) in
        check_widths_against_reference ~kind:C.Bdd tt order);
    QCheck.Test.make ~name:"ZDD chain widths match subfunction counts"
      ~count:150
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:5 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let order = Helpers.perm_of_seed seed (T.arity tt) in
        check_widths_against_reference ~kind:C.Zdd tt order);
    QCheck.Test.make ~name:"Lemma 3: last-level width depends only on the set"
      ~count:150
      (QCheck.pair (Helpers.arb_truthtable ~lo:2 ~hi:5 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let n = T.arity tt in
        let st = Helpers.rng seed in
        let i = Random.State.int st n in
        let below =
          List.filter (fun v -> v <> i && Random.State.bool st)
            (List.init n (fun v -> v))
        in
        let base = C.of_truthtable C.Bdd tt in
        let width_for perm =
          let s = C.compact_chain base (Array.of_list perm) in
          let s' = C.compact s i in
          C.width_of_last ~before:s ~after:s'
        in
        match Helpers.permutations below with
        | [] -> true
        | first :: rest ->
            let w = width_for first in
            List.for_all (fun p -> width_for p = w) rest);
    QCheck.Test.make ~name:"mincost equals listed node count" ~count:150
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:6 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let order = Helpers.perm_of_seed seed (T.arity tt) in
        let st = C.compact_chain (C.of_truthtable C.Bdd tt) order in
        (* the levels list every id from the terminals to next_id once *)
        let ids = ref [] in
        C.iter_nodes (fun id ~var:_ ~lo:_ ~hi:_ -> ids := id :: !ids) st.C.levels;
        List.sort compare !ids
        = List.init st.C.mincost (fun j -> st.C.num_terminals + j)
        && st.C.next_id = st.C.num_terminals + st.C.mincost);
  ]

let () =
  Alcotest.run "compact"
    [ ("unit", unit_tests); ("props", Helpers.qtests props) ]
