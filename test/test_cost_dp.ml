(* The cost counters and the sweep's cell width, tested directly. *)

module Metrics = Ovo_core.Metrics
module C = Ovo_core.Compact
module T = Ovo_boolfun.Truthtable

let unit_tests =
  [
    Helpers.case "counters accumulate and diff" (fun () ->
        let metrics = Metrics.create () in
        let st = C.of_truthtable C.Bdd (T.of_string "01100110") in
        let before = Metrics.snapshot metrics in
        let _ = C.compact ~metrics st 0 in
        let d = Metrics.diff (Metrics.snapshot metrics) before in
        Helpers.check_int "cells = half the table" 4 d.Metrics.s_table_cells;
        Helpers.check_int "one compaction" 1 d.Metrics.s_compactions;
        Helpers.check_bool "nodes counted" true
          (d.Metrics.s_node_creations >= 1));
    Helpers.case "chain counts a geometric series of cells" (fun () ->
        let metrics = Metrics.create () in
        let before = Metrics.snapshot metrics in
        let tt = T.random (Helpers.rng 1) 6 in
        let _ =
          C.compact_chain ~metrics (C.of_truthtable C.Bdd tt)
            [| 0; 1; 2; 3; 4; 5 |]
        in
        let d = Metrics.diff (Metrics.snapshot metrics) before in
        (* 32 + 16 + 8 + 4 + 2 + 1 *)
        Helpers.check_int "cells" 63 d.Metrics.s_table_cells;
        Helpers.check_int "compactions" 6 d.Metrics.s_compactions);
  ]

let dp_tests =
  [
    Helpers.case "4-byte cells: value alphabets past 65 535 match brute force"
      (fun () ->
        (* terminal ids at or past 65 536 need 4-byte cells from the base
           on; alphabets just below it cross over at some layer.  A
           2-byte cell would alias id v with v - 65 536 (values 3 and
           65 539 below), so a wrong width changes the optimum. *)
        let n = 6 in
        let brute kind mt =
          let metrics = Metrics.create () and base = C.initial kind mt in
          List.fold_left
            (fun acc order ->
              min acc (C.compact_chain ~metrics base order).C.mincost)
            max_int (Helpers.all_orders n)
        in
        let check name alphabet values =
          let rng = Helpers.rng alphabet in
          let mt =
            Ovo_boolfun.Mtable.of_fun n ~values:alphabet (fun _ ->
                values.(Random.State.int rng (Array.length values)))
          in
          List.iter
            (fun kind ->
              let r = Ovo_core.Fs.run_mtable ~kind mt in
              let p =
                Ovo_core.Fs.run_mtable ~kind
                  ~engine:(Ovo_core.Engine.par ~domains:2 ())
                  mt
              in
              Helpers.check_int name (brute kind mt) r.Ovo_core.Fs.mincost;
              Helpers.check_bool (name ^ ": diagram") true
                (Ovo_core.Diagram.check r.Ovo_core.Fs.diagram mt);
              Helpers.check_bool (name ^ ": par order") true
                (p.Ovo_core.Fs.order = r.Ovo_core.Fs.order))
            [ C.Bdd; C.Zdd ]
        in
        check "wide base" 70_000 [| 0; 3; 7; 65_539; 65_543; 69_999 |];
        for alphabet = 65_470 to 65_535 do
          if alphabet mod 3 = 0 then
            check (Printf.sprintf "alphabet %d" alphabet) alphabet
              [| 0; 1; 2; alphabet - 2; alphabet - 1 |]
        done);
  ]

let () =
  Alcotest.run "cost_dp" [ ("cost", unit_tests); ("subset_dp", dp_tests) ]
