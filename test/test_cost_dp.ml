(* The cost counters and the Subset_dp functor, tested directly. *)

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

(* A toy COMPACTABLE instance with no table: its slices are empty, so
   the sweep kernel sees only the step cost.  Placing variable i costs i
   times the number of variables still free after it, so the optimum
   over a set places big indices early and different orders genuinely
   differ. *)
module Toy = struct
  type state = { free : Ovo_core.Varset.t; cost : int }

  let compact st i =
    if not (Ovo_core.Varset.mem i st.free) then invalid_arg "toy";
    let free = Ovo_core.Varset.remove i st.free in
    { free; cost = st.cost + (i * Ovo_core.Varset.cardinal free) }

  let materialise ~metrics:_ st i = compact st i
  let mincost st = st.cost
  let free st = st.free
  let next_id _ = 0
  let cells _ = 0
  let load _ _ _ = ()
  let probe ~metrics:_ ~base:_ _ _ ~bit:_ ~next_id:_ = 0
  let write ~metrics:_ ~base:_ _ _ _ _ ~bit:_ ~next_id:_ = 0

  let step_cost ~base sub i ~width:_ =
    i * (Ovo_core.Varset.cardinal (Ovo_core.Varset.diff base.free sub) - 1)
end

module Toy_dp = Ovo_core.Subset_dp.Make (Toy)

let toy_brute base vars =
  List.fold_left
    (fun acc order ->
      min acc
        (Array.fold_left Toy.compact base (Array.of_list order)).Toy.cost)
    max_int
    (Helpers.permutations vars)

let dp_tests =
  [
    Helpers.case "functor DP matches brute force on the toy problem" (fun () ->
        for n = 1 to 6 do
          let full = Ovo_core.Varset.full n in
          let base = { Toy.free = full; cost = 0 } in
          let st = Toy_dp.complete ~base full in
          Helpers.check_int
            (Printf.sprintf "n=%d" n)
            (toy_brute base (List.init n (fun i -> i)))
            st.Toy.cost
        done);
    Helpers.case "early stop produces exactly the layer" (fun () ->
        let full = Ovo_core.Varset.full 5 in
        let base = { Toy.free = full; cost = 0 } in
        let t = Toy_dp.run ~upto:2 ~base full in
        Helpers.check_int "layer" 10 (Hashtbl.length t.Toy_dp.layer);
        Hashtbl.iter
          (fun k (st : Toy.state) ->
            Helpers.check_int "free matches"
              (Ovo_core.Varset.cardinal (Ovo_core.Varset.diff full k))
              (Ovo_core.Varset.cardinal st.Toy.free))
          t.Toy_dp.layer);
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
    Helpers.case "invalid J rejected" (fun () ->
        let base = { Toy.free = Ovo_core.Varset.of_list [ 0; 1 ]; cost = 0 } in
        Alcotest.check_raises "bad J"
          (Invalid_argument "Subset_dp.run: J not free in the base state")
          (fun () -> ignore (Toy_dp.run ~base (Ovo_core.Varset.of_list [ 2 ]))));
  ]

let () =
  Alcotest.run "cost_dp" [ ("cost", unit_tests); ("subset_dp", dp_tests) ]
