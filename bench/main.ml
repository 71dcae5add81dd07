(* Bench harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index) in a single
   executable.  Output is recorded in EXPERIMENTS.md. *)

module T = Ovo_boolfun.Truthtable
module F = Ovo_boolfun.Families
module Fs = Ovo_core.Fs
module C = Ovo_core.Compact
module E = Ovo_core.Eval_order
module O = Ovo_quantum.Opt_obdd
module P = Ovo_quantum.Params
module Nt = Ovo_numerics.Tables
module Ne = Ovo_numerics.Exponents
module Np = Ovo_numerics.Predict
module Nm = Ovo_numerics.Maths

let section name = Printf.printf "\n================ [%s] ================\n" name

(* Remove [path] and everything under it; a missing path is not an error. *)
let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

let measured_cells f =
  let metrics = Ovo_core.Metrics.create () in
  let result = f metrics in
  let snap = Ovo_core.Metrics.snapshot metrics in
  (result, float_of_int snap.Ovo_core.Metrics.s_table_cells)

(* [f ()] and the wall-clock seconds it took. *)
let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The upper median: an odd count of repetitions gives the middle one. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* Write [doc] to [file] (in the working directory) as one line of JSON. *)
let write_json file doc =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Ovo_obs.Json.to_string doc);
      output_char oc '\n');
  Printf.printf "written: %s\n" file

(* ------------------------------------------------------------------ *)

let fig1 () =
  section "fig1";
  Printf.printf
    "Fig. 1 - OBDD size of f = x0x1 + x2x3 + ... under the natural vs the\n\
     interleaved ordering (paper: 2n+2 vs 2^(n+1)); exact optimum via FS.\n\n";
  Printf.printf "%6s %4s %9s %6s %12s %9s %7s\n" "pairs" "n" "natural" "2n+2"
    "interleaved" "2^(n+1)" "exact";
  for pairs = 1 to 8 do
    let tt = F.achilles pairs in
    let n = 2 * pairs in
    let good = E.size tt (F.achilles_good_order pairs) in
    let bad = E.size tt (F.achilles_bad_order pairs) in
    let exact = if n <= 14 then string_of_int (Fs.run tt).Fs.size else "-" in
    Printf.printf "%6d %4d %9d %6d %12d %9d %7s\n" pairs n good (n + 2) bad
      (1 lsl (pairs + 1))
      exact
  done;
  Printf.printf
    "\nShape check: natural ordering grows linearly, interleaved doubles per\n\
     pair, and the exact optimiser always recovers the linear size.\n"

(* ------------------------------------------------------------------ *)

let table1 () =
  section "table1";
  Printf.printf
    "Table 1 - gamma_k and alpha of OptOBDD(k, alpha), re-solved from the\n\
     equation system (8)-(9) and compared to the published values.\n\n";
  Printf.printf "%2s %10s %10s %10s   alpha (solved)\n" "k" "gamma_k"
    "published" "delta";
  List.iteri
    (fun i row ->
      let _, published, _ = P.table1.(i) in
      Printf.printf "%2d %10.5f %10.5f %10.1e   [%s]\n" row.Nt.k
        row.Nt.gamma_out published
        (Float.abs (row.Nt.gamma_out -. published))
        (String.concat "; "
           (List.map (Printf.sprintf "%.6f") (Array.to_list row.Nt.alpha))))
    (Nt.table1 ());
  let a0, g0 = Ne.gamma0 () in
  let a1, g1 = Ne.gamma1 () in
  Printf.printf
    "\nSec. 3.1 anchors: gamma_0 = %.5f at alpha = %.6f (paper 2.98581 / 0.269577)\n"
    g0 a0;
  Printf.printf
    "                  gamma_1 = %.5f at alpha = %.6f (paper 2.97625 / 0.274863)\n"
    g1 a1

let table2 () =
  section "table2";
  Printf.printf
    "Table 2 - Theorem 13 composition: each round feeds its gamma into the\n\
     equations (14)-(15); beta_6 descends to 2.77286.\n\n";
  Printf.printf "%10s %10s %10s %10s\n" "gamma_in" "beta_6" "published" "delta";
  List.iteri
    (fun i row ->
      let _, published, _ = P.table2.(i) in
      Printf.printf "%10.5f %10.5f %10.5f %10.1e\n" row.Nt.gamma_in
        row.Nt.gamma_out published
        (Float.abs (row.Nt.gamma_out -. published)))
    (Nt.table2 ());
  Printf.printf "\nHeadline constant (Theorems 1/13): gamma <= %.5f\n"
    P.final_gamma

(* ------------------------------------------------------------------ *)

let thm5_scaling () =
  section "thm5-scaling";
  Printf.printf
    "Theorem 5 - FS processes Sum_k C(n,k)*k*2^(n-k) = n*3^(n-1) table\n\
     cells: measured counter vs closed form, and the fitted base.\n\n";
  Printf.printf "%3s %15s %15s %8s\n" "n" "measured" "n*3^(n-1)" "ratio";
  let points = ref [] in
  for n = 4 to 13 do
    let tt = T.random (Random.State.make [| n |]) n in
    let _, cells = measured_cells (fun metrics -> Fs.run ~metrics tt) in
    points := (n, cells) :: !points;
    Printf.printf "%3d %15.0f %15.0f %8.4f\n" n cells (Np.fs_cells n)
      (cells /. Np.fs_cells n)
  done;
  let slope = Np.log2_cost_per_var !points in
  Printf.printf
    "\nfitted growth: cost ~ (%.4f)^n   [paper: 3^n up to a polynomial factor]\n"
    (Nm.pow2 slope)

(* ------------------------------------------------------------------ *)

let quantum_vs_classical () =
  section "quantum-vs-classical";
  Printf.printf
    "Modeled cost (table cells) of the algorithm families.  Small n:\n\
     simulated runs (the analytic predictor is asserted equal to the\n\
     simulation by the test suite).  Large n: the predictor extends the\n\
     curves to where the paper's asymptotics bite.\n\n";
  Printf.printf "-- simulated, small n --\n";
  Printf.printf "%3s %14s %14s %14s %14s\n" "n" "brute n!2^n" "FS (measured)"
    "OptOBDD(6)" "tower-2";
  for n = 4 to 11 do
    let tt = T.random (Random.State.make [| 7 * n |]) n in
    let _, fs_cells = measured_cells (fun metrics -> Fs.run ~metrics tt) in
    let mt = Ovo_boolfun.Mtable.of_truthtable tt in
    let ctx = O.make_ctx () in
    let _, qcost = O.minimize ~ctx (O.theorem10 ()) mt in
    let tower_cost =
      if n <= 9 then begin
        let ctx2 = O.make_ctx () in
        let _, c = O.minimize ~ctx:ctx2 (O.tower ~depth:2) mt in
        Some c
      end
      else None
    in
    Printf.printf "%3d %14.3e %14.3e %14.3e %14s\n" n (Np.brute_force_cells n)
      fs_cells qcost
      (match tower_cost with Some c -> Printf.sprintf "%.3e" c | None -> "-")
  done;
  let eps n = Float.pow 2. (-.float_of_int n) in
  let a6 = P.table1_alpha 6 in
  let alphas = Array.init 10 P.table2_alpha in
  let fs n = Np.fs_cells n in
  let q6 n = Np.theorem10_cost ~epsilon:(eps n) ~alpha:a6 n in
  let t10 n = Np.tower_cost ~epsilon:(eps n) ~alphas ~depth:10 n in
  Printf.printf "\n-- predicted (exact modeled accounting), large n --\n";
  Printf.printf "%4s %14s %14s %14s %9s\n" "n" "FS" "OptOBDD(6)" "tower-10"
    "q6/FS";
  List.iter
    (fun n ->
      Printf.printf "%4d %14.3e %14.3e %14.3e %9.3f\n" n (fs n) (q6 n) (t10 n)
        (q6 n /. fs n))
    [ 12; 16; 20; 25; 30; 40; 60; 80; 100; 120 ];
  let window lo hi f = List.init (hi - lo + 1) (fun i -> (lo + i, f (lo + i))) in
  let base f = Nm.pow2 (Np.log2_cost_per_var (window 60 120 f)) in
  (* divide out the linear poly factor of FS to expose the clean base *)
  let fs_poly_free n = fs n /. float_of_int n in
  Printf.printf
    "\nfitted bases over n = 60..120:  FS %.4f (poly-corrected %.4f)\n\
    \                                OptOBDD(6) %.4f   tower-10 %.4f\n"
    (base fs) (base fs_poly_free) (base q6) (base t10);
  Printf.printf
    "(paper asymptotics: 3 vs 2.83728 vs 2.77286.  At feasible n the\n\
     alpha*n roundings merge most division points, so the measured bases\n\
     sit between the classical 3 and the ideal constants; the ordering\n\
     classical > OptOBDD is already visible, the deep tower's stacked\n\
     query constants need far larger n.)\n";
  let rec find pred n limit = if n > limit then None else if pred n then Some n else find pred (n + 1) limit in
  let stable pred n = pred n && pred (n + 1) && pred (n + 2) in
  (match find (stable (fun n -> q6 n < fs n)) 4 400 with
  | Some n -> Printf.printf "modeled crossover: OptOBDD(6) beats FS stably from n = %d\n" n
  | None -> Printf.printf "no stable OptOBDD-vs-FS crossover below n = 400\n");
  (match find (stable (fun n -> t10 n < fs n)) 4 400 with
  | Some n -> Printf.printf "modeled crossover: tower-10 beats FS from n = %d\n" n
  | None -> Printf.printf "no stable tower-vs-FS crossover below n = 400\n");
  (match find (stable (fun n -> t10 n < q6 n)) 4 400 with
  | Some n -> Printf.printf "modeled crossover: tower-10 beats OptOBDD(6) from n = %d\n" n
  | None ->
      Printf.printf
        "tower-10 never beats OptOBDD(6) below n = 400 (its per-level\n\
         search constants dominate until the alpha differences resolve)\n");
  let rec find_cross n =
    if n > 40 then n
    else if Np.fs_cells n < Np.brute_force_cells n then n
    else find_cross (n + 1)
  in
  Printf.printf
    "brute force loses to FS from n = %d on (closed-form cell counts)\n"
    (find_cross 2)

(* ------------------------------------------------------------------ *)

let optimality_check () =
  section "optimality-check";
  Printf.printf
    "Theorem 1 correctness claims on random functions: the quantum\n\
     algorithm's output equals the exact optimum; with forced qsearch\n\
     errors the output diagram is still a valid OBDD for f.\n\n";
  let st = Random.State.make [| 2026 |] in
  let trials = 60 in
  let agree = ref 0 in
  for _ = 1 to trials do
    let n = 3 + Random.State.int st 4 in
    let tt = T.random st n in
    let exact = (Fs.run tt).Fs.mincost in
    let ctx = O.make_ctx () in
    let r, _ =
      O.minimize ~ctx (O.theorem10 ()) (Ovo_boolfun.Mtable.of_truthtable tt)
    in
    if r.Fs.mincost = exact && Ovo_core.Diagram.check_tt r.Fs.diagram tt then
      incr agree
  done;
  Printf.printf "exact agreement: %d/%d\n" !agree trials;
  let rng = Random.State.make [| 31337 |] in
  let valid = ref 0 and minimum = ref 0 in
  for _ = 1 to trials do
    let n = 4 + Random.State.int st 2 in
    let tt = T.random st n in
    let exact = (Fs.run tt).Fs.mincost in
    let ctx = O.make_ctx ~rng ~epsilon:0.5 () in
    let r, _ =
      O.minimize ~ctx (O.theorem10 ()) (Ovo_boolfun.Mtable.of_truthtable tt)
    in
    if Ovo_core.Diagram.check_tt r.Fs.diagram tt then incr valid;
    if r.Fs.mincost = exact then incr minimum
  done;
  Printf.printf
    "with epsilon = 0.5 error injection: valid diagrams %d/%d, still minimum %d/%d\n"
    !valid trials !minimum trials;
  Printf.printf
    "(validity must be %d/%d - minimality is allowed to fail, Theorem 1)\n"
    trials trials

(* ------------------------------------------------------------------ *)

let zdd_mtbdd () =
  section "zdd-mtbdd";
  Printf.printf
    "Remark 2 - the two-line rule change minimises ZDDs, and the\n\
     multi-valued table minimises MTBDDs.  Exact vs brute force, plus\n\
     sparse families where the ZDD wins.\n\n";
  Printf.printf "%18s %4s %10s %10s %12s\n" "function" "n" "min-BDD" "min-ZDD"
    "brute-ZDD";
  List.iter
    (fun (name, tt) ->
      let n = T.arity tt in
      let bdd = (Fs.run tt).Fs.mincost in
      let zdd = (Fs.run ~kind:C.Zdd tt).Fs.mincost in
      let brute =
        if n <= 7 then
          string_of_int
            (Ovo_ordering.Brute.best ~kind:C.Zdd (Ovo_boolfun.Mtable.of_truthtable tt))
              .Ovo_ordering.Chain.mincost
        else "-"
      in
      Printf.printf "%18s %4d %10d %10d %12s\n" name n bdd zdd brute)
    [
      ("achilles-3", F.achilles 3);
      ("achilles-4", F.achilles 4);
      ("parity-6", F.parity 6);
      ("threshold-8-6", F.threshold 8 ~k:6);
      ("mux-2", F.multiplexer ~select:2);
      ("sparse-interval", F.weight_interval 8 ~lo:0 ~hi:1);
    ];
  let product =
    Ovo_boolfun.Mtable.of_fun 4 ~values:10 (fun code ->
        (code land 3) * (code lsr 2))
  in
  let r = Fs.run_mtable product in
  let brute = Ovo_ordering.Brute.best product in
  Printf.printf
    "\nMTBDD of 2-bit multiplication: exact %d nodes (brute force %d), valid=%b\n"
    r.Fs.mincost brute.Ovo_ordering.Chain.mincost
    (Ovo_core.Diagram.check r.Fs.diagram product)

(* ------------------------------------------------------------------ *)

let heuristic_quality () =
  section "heuristic-quality";
  Printf.printf
    "Sec. 1.1 - judging heuristics with the exact optimum (ratio 1.00 is\n\
     optimal), plus the FS*-based exact-block hybrid.\n\n";
  let rng = Random.State.make [| 0xB00 |] in
  List.iter
    (fun (name, tt) ->
      let report = Ovo_ordering.Quality.evaluate ~rng ~name tt in
      let hybrid =
        Ovo_ordering.Exact_block.run ~block:4 (Ovo_boolfun.Mtable.of_truthtable tt)
      in
      Format.printf "%a  exact-block=%d@." Ovo_ordering.Quality.pp_report report
        hybrid.Ovo_ordering.Chain.mincost)
    (F.catalogue ~max_arity:10)

(* ------------------------------------------------------------------ *)

(* A compaction chain whose NODE set is keyed by the children pair only,
   as the paper's COMPACT pseudo-code literally reads.  Used by the
   ablation below to show that the prose definition (key includes the
   variable) is the correct one. *)
let buggy_chain_mincost tt order =
  let n = T.arity tt in
  let table = ref (Array.init (1 lsl n) (fun code -> if T.eval tt code then 1 else 0)) in
  let node = Hashtbl.create 16 in
  let next = ref 2 and count = ref 0 in
  let assigned = ref Ovo_core.Varset.empty in
  Array.iter
    (fun i ->
      let freeset = Ovo_core.Varset.diff (Ovo_core.Varset.full n) !assigned in
      let p = Ovo_core.Varset.rank_in i freeset in
      let new_len = Array.length !table / 2 in
      let out = Array.make (max new_len 1) 0 in
      let low_mask = (1 lsl p) - 1 in
      for b = 0 to new_len - 1 do
        let idx0 = ((b lsr p) lsl (p + 1)) lor (b land low_mask) in
        let lo = !table.(idx0) and hi = !table.(idx0 lor (1 lsl p)) in
        if lo = hi then out.(b) <- lo
        else
          match Hashtbl.find_opt node (lo, hi) with
          | Some u -> out.(b) <- u
          | None ->
              let u = !next in
              incr next;
              incr count;
              Hashtbl.add node (lo, hi) u;
              out.(b) <- u
      done;
      table := out;
      assigned := Ovo_core.Varset.add i !assigned)
    order;
  !count

let ablations () =
  section "ablations";
  Printf.printf
    "Design-choice ablations called out in DESIGN.md.\n";

  Printf.printf
    "\n(a) NODE key must include the variable (paper prose) - the\n\
     pseudo-code's children-only key merges distinct subfunctions.\n\
     Scanning random functions for a divergence:\n";
  let st = Random.State.make [| 77 |] in
  let found = ref None in
  (try
     while !found = None do
       let n = 3 + Random.State.int st 3 in
       let tt = T.random st n in
       let order = Array.init n (fun i -> i) in
       let good = E.mincost tt order in
       let bad = buggy_chain_mincost tt order in
       if bad <> good then found := Some (tt, good, bad)
     done
   with _ -> ());
  (match !found with
  | Some (tt, good, bad) ->
      Printf.printf
        "  counterexample: f = %s\n  correct node count %d, children-only key gives %d\n"
        (T.to_string tt) good bad
  | None -> Printf.printf "  (no divergence found - unexpected)\n");

  Printf.printf
    "\n(b) number of division points k (modeled cost at n = 30, eps = 2^-30):\n";
  Printf.printf "  %2s %12s %10s   (Table 1 gamma_k: asymptotic target)\n" "k"
    "cells" "gamma_k";
  for k = 1 to 6 do
    let cost =
      Np.theorem10_cost ~epsilon:(Float.pow 2. (-30.))
        ~alpha:(P.table1_alpha k) 30
    in
    Printf.printf "  %2d %12.3e %10.5f\n" k cost (P.table1_gamma k)
  done;
  Printf.printf
    "  (k = 2 already captures most of the gain, matching Table 1's\n\
    \   rapidly flattening gamma_k column)\n";

  Printf.printf
    "\n(c) preprocessing ablation (Sec. 3.1): exponent bases without and\n\
     with the classical preprocess:\n";
  let a0, g0 = Ne.gamma0 () in
  let a1, g1 = Ne.gamma1 () in
  Printf.printf "  no preprocess : gamma_0 = %.5f (alpha = %.6f)\n" g0 a0;
  Printf.printf "  with preprocess: gamma_1 = %.5f (alpha = %.6f)\n" g1 a1;

  Printf.printf
    "\n(d) exact windows (FS* blocks) vs brute-force windows on hwb-10:\n";
  let tt = F.hidden_weighted_bit 10 in
  let mt = Ovo_boolfun.Mtable.of_truthtable tt in
  let win = Ovo_ordering.Window.run ~window:4 mt in
  let blk = Ovo_ordering.Exact_block.run ~block:4 mt in
  let exact = (Fs.run tt).Fs.mincost in
  Printf.printf
    "  window-4: cost %d; exact-block-4: cost %d; true optimum %d\n"
    win.Ovo_ordering.Chain.mincost blk.Ovo_ordering.Chain.mincost exact

(* ------------------------------------------------------------------ *)

let shared_bench () =
  section "shared";
  Printf.printf
    "Multi-rooted (shared) exact optimisation - the THY96 setting.\n\n";
  Printf.printf "%-18s %4s %8s %14s %8s %10s\n" "circuit" "n" "shared"
    "sum-of-singles" "blocked" "quantum";
  List.iter
    (fun (name, outputs) ->
      let mts = Array.map Ovo_boolfun.Mtable.of_truthtable outputs in
      let r = Ovo_core.Shared.minimize mts in
      let singles =
        Array.fold_left
          (fun acc tt -> acc + (Fs.run tt).Fs.mincost)
          0 outputs
      in
      let n = T.arity outputs.(0) in
      let base = Ovo_core.Shared.initial C.Bdd mts in
      let blocked =
        (C.compact_chain ~metrics:(Ovo_core.Metrics.create ()) base
           (Array.init n (fun i -> i)))
          .C.mincost
      in
      let qshared =
        if n <= 6 then begin
          let ctx = O.make_ctx () in
          let st, _ = O.apply (O.theorem10 ()) ctx base (C.free base) in
          string_of_int (Ovo_core.Shared.of_state st).Ovo_core.Shared.mincost
        end
        else "-"
      in
      Printf.printf "%-18s %4d %8d %14d %8d %10s\n" name n
        r.Ovo_core.Shared.mincost singles blocked qshared)
    F.multi_catalogue

(* ------------------------------------------------------------------ *)

let spectrum () =
  section "spectrum";
  Printf.printf
    "The full size distribution over all n! orderings - how rare good\n\
     orderings are (the quantitative version of the paper's motivation).\n\n";
  List.iter
    (fun (name, tt) ->
      Format.printf "%-14s %a@." name Ovo_ordering.Spectrum.pp
        (Ovo_ordering.Spectrum.compute tt))
    [
      ("achilles-3", F.achilles 3);
      ("achilles-4", F.achilles 4);
      ("mux-2", F.multiplexer ~select:2);
      ("hwb-6", F.hidden_weighted_bit 6);
      ("adder-3-carry", F.adder_bit ~bits:3 ~out:3);
      ("majority-7", F.majority 7);
      ("random-6", T.random (Random.State.make [| 606 |]) 6);
    ];
  Printf.printf
    "\n(symmetric functions have point-mass spectra; the Fig. 1 family's\n\
     optimum fraction shrinks as n grows, and random functions sit in\n\
     between - blind search degrades accordingly.)\n";
  (* influence static heuristic against the same functions *)
  Printf.printf "\ninfluence-based static ordering (one table pass, no probing):\n";
  List.iter
    (fun (name, tt) ->
      let r = Ovo_ordering.Influence.run tt in
      let exact = (Fs.run tt).Fs.mincost in
      Printf.printf "  %-14s static=%d exact=%d (%.2fx)\n" name
        r.Ovo_ordering.Chain.mincost exact
        (float_of_int r.Ovo_ordering.Chain.mincost /. float_of_int (max exact 1)))
    [
      ("achilles-4", F.achilles 4);
      ("mux-2", F.multiplexer ~select:2);
      ("hwb-8", F.hidden_weighted_bit 8);
      ("adder-4-carry", F.adder_bit ~bits:4 ~out:4);
    ]

(* ------------------------------------------------------------------ *)

(* Engine comparison: the same FS run sequentially and domain-parallel,
   swept over 1/2/4/8 domains plus the host's own count.  Every timing
   is the median of [reps] runs, taken in interleaved rounds (each round
   runs every configuration once) so that a slow spell of the host hits
   all of them alike; wall-clock comes from gettimeofday — Sys.time sums
   CPU seconds across domains and would hide any speedup.  Results (and
   the metrics counters showing what the two-pass DP avoids) go to
   BENCH_engine.json for machine consumption.  CI gates the best
   speedup among the domains>=4 rows, and [host_speedup], the speedup
   with one domain per core, whose per-domain share is
   [parallel_efficiency]. *)
let engine_bench () =
  section "engine";
  let n = 13 in
  let reps = 3 in
  let tt = T.random (Random.State.make [| 1313 |]) n in
  let cores = Ovo_core.Engine.domain_count (Ovo_core.Engine.par ()) in
  let engines =
    Ovo_core.Engine.Seq
    :: List.map
         (fun domains -> Ovo_core.Engine.Par { domains })
         (List.sort_uniq compare [ 1; 2; 4; 8; cores ])
  in
  let run engine =
    let metrics = Ovo_core.Metrics.create () in
    let t0 = Unix.gettimeofday () in
    let r = Fs.run ~engine ~metrics tt in
    (Unix.gettimeofday () -. t0, r, Ovo_core.Metrics.snapshot metrics)
  in
  let rounds = Array.init reps (fun _ -> Array.of_list (List.map run engines)) in
  (* the median time of the [i]-th engine; every round's result and
     counters are identical, so the last round's stand for all *)
  let timed i =
    let times = Array.map (fun round -> let s, _, _ = round.(i) in s) rounds in
    Array.sort compare times;
    let _, r, snap = rounds.(reps - 1).(i) in
    (times.(reps / 2), r, snap)
  in
  let seq_s, seq_r, ms = timed 0 in
  Printf.printf "FS on a random n=%d function (median of %d runs): seq %.3fs\n"
    n reps seq_s;
  let sweep =
    List.mapi
      (fun i engine ->
        let domains = Ovo_core.Engine.domain_count engine in
        let par_s, par_r, pm = timed (i + 1) in
        let agree =
          seq_r.Fs.mincost = par_r.Fs.mincost && seq_r.Fs.order = par_r.Fs.order
        in
        let speedup = seq_s /. par_s in
        Printf.printf
          "  par:%d %.3fs -> %.2fx  identical=%b\n" domains par_s speedup agree;
        ( domains,
          speedup,
          Ovo_obs.Json.Obj
            [
              ("domains", Ovo_obs.Json.Int domains);
              ("par_seconds", Ovo_obs.Json.Float par_s);
              ("speedup", Ovo_obs.Json.Float speedup);
              ("agree", Ovo_obs.Json.Bool agree);
              ("par_metrics", Ovo_obs.Json.Obj (Ovo_core.Metrics.to_args pm));
            ] ))
      (List.tl engines)
  in
  let host_speedup =
    List.fold_left
      (fun acc (d, speedup, _) -> if d = cores then speedup else acc)
      0. sweep
  in
  Printf.printf
    "(Par is deterministic and bit-identical; this host recommends %d \
     domains: speedup %.2fx, parallel efficiency %.2f)\n"
    cores host_speedup
    (host_speedup /. float_of_int cores);
  Printf.printf
    "two-pass accounting: %d cost probes elected %d materialised winners\n\
     (node-table copies %d - sweep winners are arena slices; node levels \
     exist only on replay)\n"
    ms.Ovo_core.Metrics.s_cost_probes ms.Ovo_core.Metrics.s_states_materialised
    ms.Ovo_core.Metrics.s_node_table_copies;
  let doc =
    Ovo_obs.Json.Obj
      [
        ("n", Ovo_obs.Json.Int n);
        ("reps", Ovo_obs.Json.Int reps);
        ("host_domains", Ovo_obs.Json.Int cores);
        ("seq_seconds", Ovo_obs.Json.Float seq_s);
        ("host_speedup", Ovo_obs.Json.Float host_speedup);
        ( "parallel_efficiency",
          Ovo_obs.Json.Float (host_speedup /. float_of_int cores) );
        ("sweep", Ovo_obs.Json.List (List.map (fun (_, _, j) -> j) sweep));
        ("seq_metrics", Ovo_obs.Json.Obj (Ovo_core.Metrics.to_args ms));
      ]
  in
  write_json "BENCH_engine.json" doc

(* ------------------------------------------------------------------ *)

(* Tracer overhead: the same FS run with the null tracer and with a
   recording tracer.  The instrumentation granularity is one DP layer,
   so the recording cost is a handful of events per run and the ratio
   must stay near 1 (CI gates on <= 2x).  Medians of repeated runs keep
   one GC pause from deciding the number. *)
let obs_bench () =
  section "obs";
  let n = 12 in
  let tt = T.random (Random.State.make [| 1212 |]) n in
  let reps = 5 in
  let times f = median (List.init reps (fun _ -> snd (wall f))) in
  let off_s = times (fun () -> Fs.run tt) in
  let trace = ref (Ovo_obs.Trace.make ()) in
  let on_s =
    times (fun () ->
        trace := Ovo_obs.Trace.make ();
        Fs.run ~trace:!trace tt)
  in
  let events = Ovo_obs.Trace.event_count !trace in
  let ratio = on_s /. Float.max 1e-9 off_s in
  Printf.printf
    "FS on a random n=%d function: tracer off %.4fs, on %.4fs (%d events) -> %.3fx\n"
    n off_s on_s events ratio;
  let doc =
    Ovo_obs.Json.Obj
      [
        ("n", Ovo_obs.Json.Int n);
        ("reps", Ovo_obs.Json.Int reps);
        ("off_seconds", Ovo_obs.Json.Float off_s);
        ("on_seconds", Ovo_obs.Json.Float on_s);
        ("events", Ovo_obs.Json.Int events);
        ("overhead_ratio", Ovo_obs.Json.Float ratio);
      ]
  in
  write_json "BENCH_obs.json" doc

(* ------------------------------------------------------------------ *)

(* The ordering service: an in-process daemon on a temp Unix socket,
   driven through the real client and wire protocol.  Cache-cold
   requests (distinct random n=10 functions, plus hwb-10 once) pay the
   full canonicalize + exact-DP price; cache-warm requests (hwb-10
   repeated) are answered from the canonical result cache and must sit
   orders of magnitude lower — CI gates warm p50 at >= 10x below cold.
   Results go to BENCH_serve.json. *)
let serve_bench () =
  section "serve";
  let sock = Filename.temp_file "ovo-bench-serve" ".sock" in
  Sys.remove sock;
  let module Sv = Ovo_serve.Server in
  let module Cl = Ovo_serve.Client in
  let module Pr = Ovo_serve.Protocol in
  let cfg =
    { (Sv.default_config ~listen:(Pr.Unix_sock sock)) with
      Sv.workers = 2; queue_cap = 128; cache_cap = 512 }
  in
  let server = Sv.start cfg in
  let waiter = Thread.create (fun () -> Sv.wait server) () in
  let hwb10 = T.to_string (F.hidden_weighted_bit 10) in
  let cold_ms, warm_ms, total_requests, wall_s, final_hits =
    Cl.with_conn (Pr.Unix_sock sock) @@ fun c ->
    let next_id = ref 0 in
    let solve table =
      incr next_id;
      let t0 = Unix.gettimeofday () in
      match
        Cl.roundtrip c
          { Pr.id = !next_id;
            op =
              Pr.Solve
                { Pr.table; kind = C.Bdd; engine = Ovo_core.Engine.Seq;
                  deadline_ms = None } }
      with
      | Ok { Pr.body = Pr.Ok_solve r; _ } ->
          ((Unix.gettimeofday () -. t0) *. 1000., r.Pr.cached)
      | Ok _ | Error _ -> failwith "serve bench: unexpected reply"
    in
    let t0 = Unix.gettimeofday () in
    let cold =
      List.init 20 (fun i ->
          T.to_string (T.random (Random.State.make [| 9000 + i |]) 10))
      @ [ hwb10 ]
      |> List.map (fun table ->
             let ms, cached = solve table in
             assert (not cached);
             ms)
    in
    let warm =
      List.init 40 (fun _ ->
          let ms, cached = solve hwb10 in
          assert cached;
          ms)
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    let hits =
      match Cl.roundtrip c { Pr.id = 0; op = Pr.Stats } with
      | Ok { Pr.body = Pr.Ok_stats s; _ } ->
          Option.bind (Ovo_obs.Json.member "cache" s)
            (Ovo_obs.Json.member "hits")
          |> Fun.flip Option.bind Ovo_obs.Json.to_int_opt
          |> Option.value ~default:0
      | _ -> 0
    in
    (match Cl.roundtrip c { Pr.id = 0; op = Pr.Shutdown } with
    | Ok { Pr.body = Pr.Bye; _ } -> ()
    | _ -> failwith "serve bench: shutdown not acknowledged");
    (cold, warm, List.length cold + List.length warm, wall_s, hits)
  in
  Thread.join waiter;
  let pct q xs =
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  in
  let cold_p50 = pct 0.5 cold_ms and cold_p99 = pct 0.99 cold_ms in
  let warm_p50 = pct 0.5 warm_ms and warm_p99 = pct 0.99 warm_ms in
  let rps = float_of_int total_requests /. wall_s in
  Printf.printf
    "cache-cold (%d distinct solves): p50 %.3f ms, p99 %.3f ms\n\
     cache-warm (%d hwb-10 repeats) : p50 %.3f ms, p99 %.3f ms\n\
     warm speedup at p50: %.1fx; throughput %.0f requests/sec (%d cache hits)\n"
    (List.length cold_ms) cold_p50 cold_p99 (List.length warm_ms) warm_p50
    warm_p99 (cold_p50 /. warm_p50) rps final_hits;
  let doc =
    Ovo_obs.Json.Obj
      [
        ("cold_requests", Ovo_obs.Json.Int (List.length cold_ms));
        ("warm_requests", Ovo_obs.Json.Int (List.length warm_ms));
        ("cold_p50_ms", Ovo_obs.Json.Float cold_p50);
        ("cold_p99_ms", Ovo_obs.Json.Float cold_p99);
        ("warm_p50_ms", Ovo_obs.Json.Float warm_p50);
        ("warm_p99_ms", Ovo_obs.Json.Float warm_p99);
        ("warm_speedup_p50", Ovo_obs.Json.Float (cold_p50 /. warm_p50));
        ("requests_per_sec", Ovo_obs.Json.Float rps);
        ("cache_hits", Ovo_obs.Json.Int final_hits);
      ]
  in
  write_json "BENCH_serve.json" doc

(* ------------------------------------------------------------------ *)

(* Persistence layer: what durability costs and what it buys.  The
   checkpoint hook fires once per cardinality layer (n records for an
   n-variable run), so its overhead over a plain run must stay small —
   CI gates the median ratio at <= 1.25x.  A killed-and-resumed run
   must reproduce the uninterrupted answer bit for bit, and a restarted
   result store must warm-load every entry it was sent before the
   "crash" (close without compaction stands in for kill -9: the WAL is
   written with Unix.write, so the records are already in the file).
   Results go to BENCH_store.json. *)
let store_bench () =
  section "store";
  let module Rs = Ovo_store.Result_store in
  let module Ck = Ovo_store.Checkpoint in
  let reps = 5 in
  let n = 12 in
  let tt = T.random (Random.State.make [| 2121 |]) n in
  let ck_path = Filename.temp_file "ovo-bench-ck" ".bin" in
  let meta = Ck.meta_of ~kind:C.Bdd tt in
  let plain_r = ref None in
  let plain_s =
    median
      (List.init reps (fun _ ->
           let r, s = wall (fun () -> Fs.run tt) in
           plain_r := Some r;
           s))
  in
  let ck_s =
    median
      (List.init reps (fun _ ->
           let _, s =
             wall (fun () ->
                 let w = Ck.create ~path:ck_path meta in
                 let r =
                   Fs.run ~on_layer:(Ck.append_layer w) tt
                 in
                 Ck.close w;
                 r)
           in
           s))
  in
  let overhead = ck_s /. Float.max 1e-9 plain_s in
  Printf.printf
    "FS on a random n=%d function: plain %.4fs, with checkpoint %.4fs -> %.3fx\n"
    n plain_s ck_s overhead;
  (* Kill the run after layer n/2 (exception at the on_layer boundary,
     where the CLI's --crash-after-layer exits), then resume. *)
  let exception Crash in
  let stop_after = n / 2 in
  (let w = Ck.create ~path:ck_path meta in
   (try
      ignore
        (Fs.run
           ~on_layer:(fun p ->
             Ck.append_layer w p;
             if p.Ovo_core.Subset_dp.p_layer = stop_after then raise Crash)
           tt)
    with Crash -> ());
   Ck.close w);
  let w, layers = Ck.open_resume ~path:ck_path meta in
  let resumed, resume_s =
    wall (fun () ->
        let r =
          Fs.run ~on_layer:(Ck.append_layer w) ~resume:layers tt
        in
        Ck.close w;
        r)
  in
  let plain = Option.get !plain_r in
  let identical =
    resumed.Fs.mincost = plain.Fs.mincost
    && resumed.Fs.size = plain.Fs.size
    && resumed.Fs.order = plain.Fs.order
    && resumed.Fs.widths = plain.Fs.widths
  in
  Printf.printf
    "killed after layer %d/%d, resumed %d layers in %.4fs (%.0f%% of a full run): identical=%b\n"
    stop_after n (List.length layers) resume_s
    (100. *. resume_s /. Float.max 1e-9 plain_s)
    identical;
  Sys.remove ck_path;
  (* Warm restart of the result store: append, drop the handle, reopen. *)
  let dir = Filename.temp_file "ovo-bench-store" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let entry_of seed =
    let canon, _ = T.canonicalize (T.random (Random.State.make [| seed |]) 8) in
    let r = Fs.run canon in
    {
      Rs.digest = T.digest_of_canonical canon;
      kind = C.Bdd;
      canon;
      mincost = r.Fs.mincost;
      size = r.Fs.size;
      canon_order = r.Fs.order;
      widths = r.Fs.widths;
    }
  in
  let sent = 32 in
  let entries = List.init sent (fun i -> entry_of (4000 + i)) in
  let s = Rs.open_dir dir in
  List.iter (Rs.append s) entries;
  Rs.close s;
  let reopened, load_s = wall (fun () -> Rs.open_dir dir) in
  Rs.close reopened;
  let s = Rs.open_dir dir in
  let st = Rs.stats s in
  let hit_rate =
    float_of_int st.Rs.st_warm_loaded /. float_of_int sent
  in
  Printf.printf
    "result store restart: %d/%d entries warm-loaded in %.4fs (%d discarded) -> hit rate %.2f\n"
    st.Rs.st_warm_loaded sent load_s st.Rs.st_discarded_records hit_rate;
  Rs.close s;
  let doc =
    Ovo_obs.Json.Obj
      [
        ("n", Ovo_obs.Json.Int n);
        ("reps", Ovo_obs.Json.Int reps);
        ("plain_seconds", Ovo_obs.Json.Float plain_s);
        ("checkpoint_seconds", Ovo_obs.Json.Float ck_s);
        ("checkpoint_overhead_ratio", Ovo_obs.Json.Float overhead);
        ("resume_identical", Ovo_obs.Json.Bool identical);
        ("resume_seconds", Ovo_obs.Json.Float resume_s);
        ("store_entries_sent", Ovo_obs.Json.Int sent);
        ("store_warm_loaded", Ovo_obs.Json.Int st.Rs.st_warm_loaded);
        ("store_discarded", Ovo_obs.Json.Int st.Rs.st_discarded_records);
        ("warm_hit_rate", Ovo_obs.Json.Float hit_rate);
      ]
  in
  write_json "BENCH_store.json" doc

(* ------------------------------------------------------------------ *)
(* [prune]: the branch-and-bound exact DP.  Every catalogue family is
   solved plain and sifting-seeded-pruned and the two results must agree
   bit for bit — pruning is an optimisation, never an approximation.
   The wall-clock instance is hwb-12: medians of repeated runs, with the
   sifting seed's construction charged to the pruned side so the ratio
   is honest.  Results go to BENCH_prune.json; CI gates on
   states_pruned > 0, pruned_identical, and pruned wall <= unpruned
   wall on the hwb instance. *)
let prune_bench () =
  section "prune";
  let module B = Ovo_core.Bound in
  let identical_all = ref true in
  let total_pruned = ref 0 in
  let families =
    List.map
      (fun (name, tt) ->
        let plain = Fs.run tt in
        let b = Ovo_ordering.Seed.bound tt in
        let pruned = Fs.run ~prune:b tt in
        let identical =
          pruned.Fs.mincost = plain.Fs.mincost
          && pruned.Fs.size = plain.Fs.size
          && pruned.Fs.order = plain.Fs.order
          && pruned.Fs.widths = plain.Fs.widths
        in
        if not identical then identical_all := false;
        let states_pruned = B.states_pruned b in
        total_pruned := !total_pruned + states_pruned;
        Printf.printf "  %-16s mincost=%-4d states_pruned=%-6d identical=%b\n"
          name plain.Fs.mincost states_pruned identical;
        Ovo_obs.Json.Obj
          [
            ("family", Ovo_obs.Json.String name);
            ("mincost", Ovo_obs.Json.Int plain.Fs.mincost);
            ("states_pruned", Ovo_obs.Json.Int states_pruned);
            ("identical", Ovo_obs.Json.Bool identical);
          ])
      (F.catalogue ~max_arity:11)
  in
  let reps = 5 in
  let n = 12 in
  let tt = F.hidden_weighted_bit n in
  let plain_r = ref None in
  let plain_s =
    median
      (List.init reps (fun _ ->
           let r, s = wall (fun () -> Fs.run tt) in
           plain_r := Some r;
           s))
  in
  let pruned_r = ref None in
  let pruned_b = ref None in
  let pruned_s =
    median
      (List.init reps (fun _ ->
           let r, s =
             wall (fun () ->
                 let b = Ovo_ordering.Seed.bound tt in
                 pruned_b := Some b;
                 Fs.run ~prune:b tt)
           in
           pruned_r := Some r;
           s))
  in
  let plain = Option.get !plain_r
  and pruned = Option.get !pruned_r
  and b = Option.get !pruned_b in
  let hwb_identical =
    pruned.Fs.mincost = plain.Fs.mincost
    && pruned.Fs.size = plain.Fs.size
    && pruned.Fs.order = plain.Fs.order
    && pruned.Fs.widths = plain.Fs.widths
  in
  let identical = !identical_all && hwb_identical in
  let ratio = pruned_s /. Float.max 1e-9 plain_s in
  Printf.printf
    "hwb-%d: plain %.4fs, pruned %.4fs (seed incl.) -> %.3fx wall; %d \
     states pruned, lower/incumbent %d/%d\n"
    n plain_s pruned_s ratio (B.states_pruned b) (B.best_lower b)
    (B.incumbent b);
  Printf.printf "identical across catalogue + hwb-%d: %b\n" n identical;
  let doc =
    Ovo_obs.Json.Obj
      [
        ("families", Ovo_obs.Json.List families);
        ("states_pruned", Ovo_obs.Json.Int (!total_pruned + B.states_pruned b));
        ("pruned_identical", Ovo_obs.Json.Bool identical);
        ("hwb_n", Ovo_obs.Json.Int n);
        ("reps", Ovo_obs.Json.Int reps);
        ("hwb_plain_seconds", Ovo_obs.Json.Float plain_s);
        ("hwb_pruned_seconds", Ovo_obs.Json.Float pruned_s);
        ("hwb_wall_ratio", Ovo_obs.Json.Float ratio);
        ("hwb_prune", B.to_json_value b);
      ]
  in
  write_json "BENCH_prune.json" doc

(* ------------------------------------------------------------------ *)
(* [learn]: the ovo.learn subsystem end to end.  A small ground-truth
   corpus (all catalogue families at n <= 8 plus seeded randoms) is
   generated twice and the two NDJSON serialisations must be
   byte-identical — the dataset factory is deterministic by spec.  The
   gap harness then prices every default orderer against the corpus's
   exact optima; CI gates scorer_mean_gap <= random_mean_gap (the
   learned scorer must beat the random baseline it exists to replace).
   Finally the scorer-only pruning seed is charged against hwb-10: it
   must prune states while leaving the DP's answer bit-identical.
   Results go to BENCH_learn.json; the corpus and the default model are
   left as learn-dataset.ndjson / learn-model.json for the artifact
   upload. *)
let learn_bench () =
  section "learn";
  let module B = Ovo_core.Bound in
  let module D = Ovo_learn.Dataset in
  let module G = Ovo_learn.Gap in
  let spec = { D.default_spec with D.n_max = 8; random = 4 } in
  let rows = D.generate spec in
  let ndjson = D.to_ndjson rows in
  let deterministic = ndjson = D.to_ndjson (D.generate spec) in
  Printf.printf "dataset: %d rows, deterministic=%b\n" (List.length rows)
    deterministic;
  let stats = G.evaluate (G.default_orderers ()) rows in
  G.report Format.std_formatter stats;
  Format.pp_print_flush Format.std_formatter ();
  let mean_gap name =
    match List.find_opt (fun s -> s.G.s_name = name) stats with
    | Some s -> s.G.s_mean_gap
    | None -> nan
  in
  let n = 10 in
  let tt = F.hidden_weighted_bit n in
  let plain = Fs.run tt in
  let b = Ovo_learn.Scorer.bound tt in
  let pruned = Fs.run ~prune:b tt in
  let identical =
    pruned.Fs.mincost = plain.Fs.mincost
    && pruned.Fs.size = plain.Fs.size
    && pruned.Fs.order = plain.Fs.order
    && pruned.Fs.widths = plain.Fs.widths
  in
  Printf.printf
    "scored seed on hwb-%d: %d states pruned, identical=%b, \
     lower/incumbent %d/%d\n"
    n (B.states_pruned b) identical (B.best_lower b) (B.incumbent b);
  Out_channel.with_open_text "learn-dataset.ndjson" (fun oc ->
      output_string oc ndjson);
  Ovo_learn.Scorer.Weights.save "learn-model.json"
    Ovo_learn.Scorer.Weights.default;
  let doc =
    Ovo_obs.Json.Obj
      [
        ("dataset_rows", Ovo_obs.Json.Int (List.length rows));
        ("dataset_deterministic", Ovo_obs.Json.Bool deterministic);
        ("scorer_mean_gap", Ovo_obs.Json.Float (mean_gap "scored"));
        ("random_mean_gap", Ovo_obs.Json.Float (mean_gap "random"));
        ("orderers", Ovo_obs.Json.List (List.map G.stat_to_json stats));
        ( "scored_seed",
          Ovo_obs.Json.Obj
            [
              ("hwb_n", Ovo_obs.Json.Int n);
              ("states_pruned", Ovo_obs.Json.Int (B.states_pruned b));
              ("identical", Ovo_obs.Json.Bool identical);
              ("bound", B.to_json_value b);
            ] );
      ]
  in
  Printf.printf "written: learn-dataset.ndjson, learn-model.json\n";
  write_json "BENCH_learn.json" doc

(* ------------------------------------------------------------------ *)

(* Telemetry: what the instruments cost and how honest the quantile
   estimates are.  The histogram's log-bucket ladder promises quantiles
   within Histo.max_rel_error (~4.4%) of an exact nearest-rank over the
   raw samples — measured here against a heavy-tailed synthetic
   distribution spanning the ladder.  The per-request cost of the whole
   telemetry path (endpoint counters + latency histograms + rolling
   windows + solve/queue-wait recording) is measured as warm-request
   throughput of an instrumented daemon vs one with telemetry off
   (median of interleaved rounds).  Results go to BENCH_metrics.json;
   CI gates overhead_ratio <= 1.10 and both rel. errors <= 0.10. *)
let metrics_bench () =
  section "metrics";
  let module H = Ovo_metrics.Histo in
  let rng = Random.State.make [| 4242 |] in
  let samples =
    (* log-uniform over ~3.9 decades: 0.01 .. ~81 ms, the busy part of
       the ladder *)
    Array.init 50_000 (fun _ ->
        0.01 *. exp (9. *. Random.State.float rng 1.))
  in
  let h = H.create () in
  Array.iter (H.record h) samples;
  let snap = H.snapshot h in
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let exact q =
    let n = Array.length sorted in
    sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
  in
  let rel_err q =
    let e = exact q in
    Float.abs (Option.get (H.quantile snap q) -. e) /. e
  in
  let p50_err = rel_err 0.5 and p99_err = rel_err 0.99 in
  Printf.printf
    "histogram quantile rel. error vs exact nearest-rank (%d samples): \
     p50 %.4f, p99 %.4f (design bound %.4f)\n"
    (Array.length samples) p50_err p99_err H.max_rel_error;
  let module Sv = Ovo_serve.Server in
  let module Cl = Ovo_serve.Client in
  let module Pr = Ovo_serve.Protocol in
  let hwb10 = T.to_string (F.hidden_weighted_bit 10) in
  let warm_requests = 400 in
  let warm_rps ~telemetry =
    let sock = Filename.temp_file "ovo-bench-metrics" ".sock" in
    Sys.remove sock;
    let cfg =
      { (Sv.default_config ~listen:(Pr.Unix_sock sock)) with
        Sv.workers = 2; queue_cap = 128; telemetry }
    in
    let server = Sv.start cfg in
    let waiter = Thread.create (fun () -> Sv.wait server) () in
    let rps =
      Cl.with_conn (Pr.Unix_sock sock) @@ fun c ->
      let solve id =
        match
          Cl.roundtrip c
            { Pr.id; op =
                Pr.Solve
                  { Pr.table = hwb10; kind = C.Bdd;
                    engine = Ovo_core.Engine.Seq; deadline_ms = None } }
        with
        | Ok { Pr.body = Pr.Ok_solve r; _ } -> r.Pr.cached
        | Ok _ | Error _ -> failwith "metrics bench: unexpected reply"
      in
      assert (not (solve 0));
      let t0 = Unix.gettimeofday () in
      for id = 1 to warm_requests do
        assert (solve id)
      done;
      let dt = Unix.gettimeofday () -. t0 in
      (match Cl.roundtrip c { Pr.id = 0; op = Pr.Shutdown } with
      | Ok { Pr.body = Pr.Bye; _ } -> ()
      | _ -> failwith "metrics bench: shutdown not acknowledged");
      float_of_int warm_requests /. dt
    in
    Thread.join waiter;
    rps
  in
  let rounds = 5 in
  (* interleave the configurations so drift hits both equally *)
  let pairs =
    List.init rounds (fun _ ->
        (warm_rps ~telemetry:true, warm_rps ~telemetry:false))
  in
  let instr = median (List.map fst pairs) in
  let uninstr = median (List.map snd pairs) in
  let ratio = uninstr /. instr in
  Printf.printf
    "warm-request throughput (median of %d rounds x %d requests): \
     instrumented %.0f rps, telemetry off %.0f rps, overhead ratio %.3fx\n"
    rounds warm_requests instr uninstr ratio;
  let doc =
    Ovo_obs.Json.Obj
      [
        ("warm_requests", Ovo_obs.Json.Int warm_requests);
        ("rounds", Ovo_obs.Json.Int rounds);
        ("instrumented_rps", Ovo_obs.Json.Float instr);
        ("uninstrumented_rps", Ovo_obs.Json.Float uninstr);
        ("overhead_ratio", Ovo_obs.Json.Float ratio);
        ("quantile_samples", Ovo_obs.Json.Int (Array.length samples));
        ("p50_rel_err", Ovo_obs.Json.Float p50_err);
        ("p99_rel_err", Ovo_obs.Json.Float p99_err);
      ]
  in
  write_json "BENCH_metrics.json" doc

let () =
  fig1 ();
  table1 ();
  table2 ();
  thm5_scaling ();
  quantum_vs_classical ();
  optimality_check ();
  zdd_mtbdd ();
  heuristic_quality ();
  ablations ();
  shared_bench ();
  spectrum ();
  engine_bench ();
  obs_bench ();
  serve_bench ();
  store_bench ();
  prune_bench ();
  learn_bench ();
  metrics_bench ();
  Printf.printf "\nAll sections completed.\n"
