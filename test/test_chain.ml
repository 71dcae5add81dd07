(* Lemma 3 pricing: every price a Chain quotes must be the mincost of
   the candidate's full compaction chain, and every heuristic that
   prices through one must behave exactly like its full-chain original,
   which stays here as the oracle. *)

module Ord = Ovo_ordering
module Chain = Ovo_ordering.Chain
module Perm = Ovo_ordering.Perm
module C = Ovo_core.Compact
module M = Ovo_core.Metrics
module T = Ovo_boolfun.Truthtable
module Mt = Ovo_boolfun.Mtable

(* The three diagram kinds the heuristics price: a BDD and a ZDD of a
   Boolean table, and an MTBDD of a 3..5-valued table. *)
let random_input st n =
  match Random.State.int st 3 with
  | 0 -> ("bdd", C.Bdd, Mt.of_truthtable (T.random st n))
  | 1 -> ("zdd", C.Zdd, Mt.of_truthtable (T.random st n))
  | _ ->
      let values = 3 + Random.State.int st 3 in
      ( Printf.sprintf "mtbdd/%d" values,
        C.Bdd,
        Mt.of_array ~values
          (Array.init (1 lsl n) (fun _ -> Random.State.int st values)) )

let full_cost base cand =
  (C.compact_chain ~metrics:(M.create ()) base cand).C.mincost

(* --- Chain prices equal full chains ------------------------------------ *)

let chain_prop =
  QCheck.Test.make ~name:"every Chain price equals the full chain's mincost"
    ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let st = Helpers.rng seed in
      let n = 1 + Random.State.int st 9 in
      let _, kind, mt = random_input st n in
      let base = C.initial kind mt in
      let chain =
        Chain.create ~metrics:(M.create ()) ~kind ~initial:(Perm.random st n) mt
      in
      let agree cand price = price = full_cost base cand in
      let check_state () =
        let order = Chain.order chain in
        let full = C.compact_chain ~metrics:(M.create ()) base order in
        let k = Random.State.int st (n + 1) in
        let pre = C.compact_chain ~metrics:(M.create ()) base (Array.sub order 0 k) in
        Chain.cost chain = full.C.mincost
        && Chain.widths chain
           = Ovo_core.Diagram.level_widths (Ovo_core.Diagram.of_state full)
        && (Chain.prefix chain k).C.table = pre.C.table
        && (Chain.prefix chain k).C.mincost = pre.C.mincost
      in
      let step () =
        let order = Chain.order chain in
        let priced =
          match Random.State.int st 4 with
          | 0 ->
              let from = Random.State.int st n in
              let costs = Chain.price_sift chain ~from in
              Array.for_all Fun.id
                (Array.mapi
                   (fun to_ c -> agree (Perm.move order ~from ~to_) c)
                   costs)
          | 1 ->
              let from = Random.State.int st n and to_ = Random.State.int st n in
              agree (Perm.move order ~from ~to_) (Chain.price_move chain ~from ~to_)
          | 2 when n >= 2 ->
              let w = 2 + Random.State.int st (min 3 (n - 1)) in
              let start = Random.State.int st (n - w + 1) in
              let block = Array.map (fun s -> order.(start + s)) (Perm.random st w) in
              let cand = Array.copy order in
              Array.blit block 0 cand start w;
              agree cand (Chain.price_window chain ~start block)
          | _ ->
              let cand = Perm.random st n in
              agree cand (Chain.price chain cand) && Chain.order chain = cand
        in
        if Random.State.bool st then
          Chain.accept chain
            (if Random.State.bool st then Perm.random st n
             else
               Perm.move (Chain.order chain) ~from:(Random.State.int st n)
                 ~to_:(Random.State.int st n));
        priced && check_state ()
      in
      check_state () && List.for_all (fun () -> step ()) (List.init 12 ignore))

let unit_tests =
  [
    Helpers.case "a move prices only the levels it changes" (fun () ->
        (* moving the top variable down one level touches the top two
           levels: one compaction of one cell plus one probe *)
        let mt = Mt.of_truthtable (T.random (Helpers.rng 3) 8) in
        let base = C.initial C.Bdd mt in
        let metrics = M.create () in
        let chain = Chain.create ~metrics ~kind:C.Bdd mt in
        let before = M.snapshot metrics in
        let c = Chain.price_move chain ~from:7 ~to_:6 in
        let d = M.diff (M.snapshot metrics) before in
        Helpers.check_int "price" (full_cost base (Perm.move (Perm.identity 8) ~from:7 ~to_:6)) c;
        Helpers.check_int "cells" 3 d.M.s_table_cells;
        Helpers.check_int "probes" 1 d.M.s_cost_probes);
    Helpers.case "accept drops the prefix above the change" (fun () ->
        let mt = Mt.of_truthtable (T.random (Helpers.rng 4) 7) in
        let base = C.initial C.Zdd mt in
        let chain = Chain.create ~metrics:(M.create ()) ~kind:C.Zdd mt in
        let cand = Perm.move (Perm.identity 7) ~from:2 ~to_:4 in
        Chain.accept chain cand;
        Alcotest.(check (array int)) "order" cand (Chain.order chain);
        Helpers.check_int "cost" (full_cost base cand) (Chain.cost chain);
        Helpers.check_int "prefix 7"
          (C.compact_chain ~metrics:(M.create ()) base cand).C.mincost
          (Chain.prefix chain 7).C.mincost);
  ]

(* --- the full-chain originals, kept as oracles -------------------------- *)

module Ref = struct
  let cost_of base order = full_cost base order

  let sifting ~kind ?(max_passes = 8) ?initial mt =
    let n = Mt.arity mt in
    let base = C.initial kind mt in
    let order = ref (match initial with None -> Perm.identity n | Some o -> o) in
    let cost = ref (cost_of base !order) in
    let passes = ref 0 and improved = ref true in
    while !improved && !passes < max_passes do
      incr passes;
      improved := false;
      let widths =
        Ovo_core.Diagram.level_widths
          (Ovo_core.Diagram.of_state
             (C.compact_chain ~metrics:(M.create ()) base !order))
      in
      let schedule =
        List.sort
          (fun (_, w1) (_, w2) -> compare w2 w1)
          (List.init n (fun pos -> ((!order).(pos), widths.(pos))))
      in
      List.iter
        (fun (v, _) ->
          let from = ref 0 in
          Array.iteri (fun i x -> if x = v then from := i) !order;
          let best_cost = ref !cost and best_order = ref !order in
          for target = 0 to n - 1 do
            if target <> !from then begin
              let cand = Perm.move !order ~from:!from ~to_:target in
              let c = cost_of base cand in
              if c < !best_cost then begin
                best_cost := c;
                best_order := cand
              end
            end
          done;
          if !best_cost < !cost then begin
            cost := !best_cost;
            order := !best_order;
            improved := true
          end)
        schedule
    done;
    { Chain.mincost = !cost; order = !order }

  let window ~kind ?(window = 3) ?(max_sweeps = 16) ?initial mt =
    let n = Mt.arity mt in
    let w = max 2 (min window n) in
    let base = C.initial kind mt in
    let order = ref (match initial with None -> Perm.identity n | Some o -> o) in
    let cost = ref (cost_of base !order) in
    let sweeps = ref 0 and improved = ref true in
    while !improved && !sweeps < max_sweeps do
      incr sweeps;
      improved := false;
      for start = 0 to n - w do
        let best_cost = ref !cost and best_order = ref !order in
        Perm.iter_all w (fun sub ->
            let cand = Array.copy !order in
            for i = 0 to w - 1 do
              cand.(start + i) <- (!order).(start + sub.(i))
            done;
            let c = cost_of base cand in
            if c < !best_cost then begin
              best_cost := c;
              best_order := cand
            end);
        if !best_cost < !cost then begin
          cost := !best_cost;
          order := !best_order;
          improved := true
        end
      done
    done;
    { Chain.mincost = !cost; order = !order }

  let annealing ~kind ~rng ?initial mt =
    let n = Mt.arity mt in
    let base = C.initial kind mt in
    let current = ref (match initial with None -> Perm.identity n | Some o -> o) in
    let current_cost = ref (cost_of base !current) in
    let best = ref !current and best_cost = ref !current_cost in
    let temperature = ref 5.0 in
    if n > 1 then
      for _ = 1 to 400 do
        let from = Random.State.int rng n in
        let to_ = Random.State.int rng n in
        if from <> to_ then begin
          let cand = Perm.move !current ~from ~to_ in
          let c = cost_of base cand in
          let delta = float_of_int (c - !current_cost) in
          if
            delta <= 0.
            || Random.State.float rng 1.
               < exp (-.delta /. Float.max !temperature 1e-9)
          then begin
            current := cand;
            current_cost := c;
            if c < !best_cost then begin
              best_cost := c;
              best := cand
            end
          end
        end;
        temperature := !temperature *. 0.97
      done;
    { Chain.mincost = !best_cost; order = !best }

  let genetic ~kind ~rng mt =
    let population = 16 in
    let n = Mt.arity mt in
    let base = C.initial kind mt in
    let individual o = (cost_of base o, o) in
    let pool =
      ref
        (Array.init population (fun i ->
             individual (if i = 0 then Perm.identity n else Perm.random rng n)))
    in
    let by_cost (c1, _) (c2, _) = compare c1 c2 in
    Array.sort by_cost !pool;
    let tournament () =
      let pick () = !pool.(Random.State.int rng population) in
      let a = pick () and b = pick () in
      if fst a <= fst b then snd a else snd b
    in
    for _ = 1 to 24 do
      let next = Array.make population !pool.(0) in
      for slot = 1 to population - 1 do
        let child = Ord.Genetic.order_crossover rng (tournament ()) (tournament ()) in
        let child =
          if n > 1 && Random.State.float rng 1. < 0.3 then
            Perm.move child ~from:(Random.State.int rng n)
              ~to_:(Random.State.int rng n)
          else child
        in
        next.(slot) <- individual child
      done;
      Array.sort by_cost next;
      pool := next
    done;
    let mincost, order = !pool.(0) in
    { Chain.mincost; order }

  let random_search ~kind ~rng mt =
    let n = Mt.arity mt in
    let base = C.initial kind mt in
    let best_order = ref (Perm.identity n) in
    let best_cost = ref (cost_of base !best_order) in
    for _ = 1 to 100 do
      let cand = Perm.random rng n in
      let c = cost_of base cand in
      if c < !best_cost then begin
        best_cost := c;
        best_order := cand
      end
    done;
    { Chain.mincost = !best_cost; order = !best_order }

  let exact_block ~kind ?initial mt =
    let n = Mt.arity mt in
    let w = min (max 2 (min 4 (max n 2))) n in
    let base0 = C.initial kind mt in
    let order = ref (match initial with None -> Perm.identity n | Some o -> o) in
    let cost = ref (cost_of base0 !order) in
    let sweeps = ref 0 and improved = ref true in
    while !improved && !sweeps < 8 do
      incr sweeps;
      improved := false;
      for start = 0 to n - w do
        let base =
          C.compact_chain ~metrics:(M.create ()) base0 (Array.sub !order 0 start)
        in
        let window_vars =
          Ovo_core.Varset.of_list (Array.to_list (Array.sub !order start w))
        in
        let st = Ovo_core.Subset_dp.complete ~base window_vars in
        let cand = Array.copy !order in
        Array.blit (Array.of_list (C.order st)) start cand start w;
        let c = cost_of base0 cand in
        if c < !cost then begin
          cost := c;
          order := cand;
          improved := true
        end
      done
    done;
    { Chain.mincost = !cost; order = !order }
end

(* --- differential: Chain-based heuristics against the oracles ----------- *)

let same_heuristics ~label ~kind ?initial mt =
  let check name expected got =
    if expected <> got then
      Alcotest.failf "%s: %s differs from its full-chain original" label name
  in
  check "sifting"
    (Ref.sifting ~kind ?initial mt)
    (Ord.Sifting.run ~kind ?initial mt);
  check "window"
    (Ref.window ~kind ?initial mt)
    (Ord.Window.run ~kind ?initial mt);
  check "annealing"
    (Ref.annealing ~kind ?initial ~rng:(Helpers.rng 7) mt)
    (Ord.Annealing.run ~kind ?initial ~rng:(Helpers.rng 7) mt);
  check "genetic"
    (Ref.genetic ~kind ~rng:(Helpers.rng 8) mt)
    (Ord.Genetic.run ~kind ~rng:(Helpers.rng 8) mt);
  check "random search"
    (Ref.random_search ~kind ~rng:(Helpers.rng 9) mt)
    (Ord.Random_search.run ~kind ~rng:(Helpers.rng 9) mt);
  check "exact-block"
    (Ref.exact_block ~kind ?initial mt)
    (Ord.Exact_block.run ~kind ?initial mt)

let differential_tests =
  [
    Helpers.case "heuristics match their full-chain originals (n <= 9)"
      (fun () ->
        let st = Helpers.rng 11 in
        for case = 1 to 30 do
          let n = 1 + Random.State.int st 9 in
          let name, kind, mt = random_input st n in
          let label = Printf.sprintf "case %d (%s, n=%d)" case name n in
          same_heuristics ~label ~kind mt;
          same_heuristics ~label:(label ^ " from a random order") ~kind
            ~initial:(Perm.random st n) mt
        done);
    Helpers.case "sifting and window match on permuted hwb-12" (fun () ->
        let hwb = Ovo_boolfun.Families.hidden_weighted_bit 12 in
        List.iter
          (fun seed ->
            let mt =
              Mt.of_truthtable (T.permute_vars hwb (Helpers.perm_of_seed seed 12))
            in
            if Ref.sifting ~kind:C.Bdd mt <> Ord.Sifting.run mt then
              Alcotest.failf "hwb-12 seed %d: sifting differs" seed;
            if Ref.window ~kind:C.Bdd mt <> Ord.Window.run mt then
              Alcotest.failf "hwb-12 seed %d: window differs" seed)
          [ 1; 2; 3; 4 ]);
  ]

let () =
  Alcotest.run "chain"
    [
      ("unit", unit_tests);
      ("properties", Helpers.qtests [ chain_prop ]);
      ("differential", differential_tests);
    ]
