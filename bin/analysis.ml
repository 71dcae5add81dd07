(* Commands that inspect a function or reproduce the paper's tables and
   figures: widths, table1, table2, fig1, compare, shared, spectrum,
   show, families. *)

open Cmdliner

let widths_cmd =
  let run input kind order =
    match input with
    | Error m -> `Error (false, m)
    | Ok tt -> (
        try
          let rf = Array.of_list order in
          let pi = Ovo_core.Eval_order.read_first rf in
          let d = Ovo_core.Eval_order.diagram ~kind tt pi in
          let widths = Ovo_core.Diagram.level_widths d in
          Format.printf "size  : %d@." (Ovo_core.Diagram.size d);
          Format.printf "widths: %a@." Front.pp_order widths;
          Format.printf "caps  : ok=%b (universal per-level bounds, max size %.0f)@."
            (Ovo_core.Bounds.check_widths
               ~n:(Ovo_boolfun.Truthtable.arity tt)
               widths)
            (Ovo_core.Bounds.max_size (Ovo_boolfun.Truthtable.arity tt));
          (* profile histogram, root level first *)
          let peak = Array.fold_left max 1 widths in
          for level = Array.length widths - 1 downto 0 do
            let w = widths.(level) in
            Format.printf "  x%-3d %4d %s@." pi.(level) w
              (String.make (max 1 (w * 40 / peak)) '#')
          done;
          `Ok ()
        with Invalid_argument m -> `Error (false, m))
  in
  Cmd.v
    (Cmd.info "widths" ~doc:"Evaluate a given variable ordering on a function")
    Term.(ret (const run $ Front.input $ Front.kind $ Front.order_arg))

let table1_cmd =
  let run () =
    Format.printf "Reproducing paper Table 1 (gamma_k and alpha for OptOBDD(k, alpha)):@.";
    List.iter
      (fun r -> Format.printf "  %a@." Ovo_numerics.Tables.pp_row r)
      (Ovo_numerics.Tables.table1 ());
    let a0, g0 = Ovo_numerics.Exponents.gamma0 () in
    Format.printf "  (Sec 3.1 gamma_0 without preprocessing: alpha=%.6f gamma=%.5f)@." a0 g0
  in
  Cmd.v (Cmd.info "table1" ~doc:"Re-solve the paper's Table 1") Term.(const run $ const ())

let table2_cmd =
  let run rounds =
    Format.printf "Reproducing paper Table 2 (Theorem 13 composition):@.";
    List.iter
      (fun r -> Format.printf "  %a@." Ovo_numerics.Tables.pp_row r)
      (Ovo_numerics.Tables.table2 ~rounds ())
  in
  let rounds =
    Arg.(value & opt int 10 & info [ "rounds" ] ~doc:"Composition rounds.")
  in
  Cmd.v (Cmd.info "table2" ~doc:"Re-solve the paper's Table 2") Term.(const run $ rounds)

let fig1_cmd =
  let run pairs =
    let tt = Ovo_boolfun.Families.achilles pairs in
    let good = Ovo_boolfun.Families.achilles_good_order pairs in
    let bad = Ovo_boolfun.Families.achilles_bad_order pairs in
    Format.printf
      "f = x0*x1 + x2*x3 + ... over %d variables (paper Fig. 1 family)@."
      (2 * pairs);
    Format.printf "natural ordering    : size %d (paper: 2n+2 = %d)@."
      (Ovo_core.Eval_order.size tt good)
      ((2 * pairs) + 2);
    Format.printf "interleaved ordering: size %d (paper: 2^(n+1) = %d)@."
      (Ovo_core.Eval_order.size tt bad)
      (1 lsl (pairs + 1));
    let r = Ovo_core.Fs.run tt in
    Format.printf "exact optimum       : size %d@." r.Ovo_core.Fs.size
  in
  let pairs =
    Arg.(value & opt int 3 & info [ "pairs" ] ~doc:"Number of product pairs n.")
  in
  Cmd.v
    (Cmd.info "fig1" ~doc:"Reproduce the paper's Fig. 1 ordering blow-up")
    Term.(const run $ pairs)

(* heuristic quality, paper Sec. 1.1 *)
let compare_cmd =
  let run input seed =
    match input with
    | Error m -> `Error (false, m)
    | Ok (name, tt) ->
        let rng = Random.State.make [| seed |] in
        let report = Ovo_ordering.Quality.evaluate ~rng ~name tt in
        Format.printf "%a@." Ovo_ordering.Quality.pp_report report;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Judge heuristic quality against the exact optimum (paper Sec. 1.1)")
    Term.(ret (const run $ Front.named_input $ Front.seed_arg))

let shared_cmd =
  let run pla kind engine stats obs =
    Front.with_obs obs @@ fun trace ->
    match pla with
    | None -> `Error (false, "pass --pla FILE (all outputs are optimised jointly)")
    | Some path -> (
        try
          let p = Ovo_boolfun.Pla.of_file path in
          let outputs = Ovo_boolfun.Pla.tables p in
          let metrics = Ovo_core.Metrics.create () in
          let r =
            Ovo_core.Shared.minimize ~trace ~kind ~engine ~metrics
              (Array.map Ovo_boolfun.Mtable.of_truthtable outputs)
          in
          Format.printf "outputs            : %d over %d inputs@."
            (Array.length outputs) (Ovo_boolfun.Pla.inputs p);
          Format.printf "shared minimum size: %d nodes (%d non-terminal)@."
            r.Ovo_core.Shared.size r.Ovo_core.Shared.mincost;
          let n = Array.length r.Ovo_core.Shared.order in
          Format.printf "order (root first) : %a@." Front.pp_order
            (Array.init n (fun i -> r.Ovo_core.Shared.order.(n - 1 - i)));
          Array.iteri
            (fun j tt ->
              let alone = (Ovo_core.Fs.run ~kind tt).Ovo_core.Fs.mincost in
              Format.printf "  output %d alone would need %d nodes@." j alone)
            outputs;
          Front.emit_stats stats metrics;
          `Ok ()
        with
        | Failure m | Invalid_argument m | Sys_error m -> `Error (false, m))
  in
  let pla =
    Arg.(
      value
      & opt (some string) None
      & info [ "pla" ] ~docv:"FILE" ~doc:"PLA (espresso) file.")
  in
  Cmd.v
    (Cmd.info "shared"
       ~doc:"Jointly optimise all outputs of a PLA as one shared diagram")
    Term.(ret (const run $ pla $ Front.kind $ Front.engine $ Front.stats
               $ Front.obs))

let spectrum_cmd =
  let run input kind =
    match input with
    | Error m -> `Error (false, m)
    | Ok tt -> (
        try
          let s = Ovo_ordering.Spectrum.compute ~kind tt in
          Format.printf "%a@." Ovo_ordering.Spectrum.pp s;
          Format.printf "histogram (cost: orderings):@.";
          List.iter
            (fun (cost, count) -> Format.printf "  %4d: %d@." cost count)
            s.Ovo_ordering.Spectrum.histogram;
          `Ok ()
        with Invalid_argument m -> `Error (false, m))
  in
  Cmd.v
    (Cmd.info "spectrum"
       ~doc:"Size distribution over all orderings (arity <= 8)")
    Term.(ret (const run $ Front.input $ Front.kind))

(* serialized diagrams *)
let show_cmd =
  let run path dot =
    try
      let d = Ovo_core.Diagram.deserialize (Front.read_file path) in
      Format.printf "%a@." Ovo_core.Diagram.pp d;
      Format.printf "level widths: %a@." Front.pp_order
        (Ovo_core.Diagram.level_widths d);
      Option.iter
        (fun out ->
          Front.write_file out (Ovo_core.Diagram.to_dot d);
          Format.printf "dot written : %s@." out)
        dot;
      `Ok ()
    with Failure m | Invalid_argument m | Sys_error m -> `Error (false, m)
  in
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"A diagram saved with $(b,optimize --save).")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Inspect a saved diagram file")
    Term.(ret (const run $ path $ Front.dot_arg))

let families_cmd =
  let run max_arity exact =
    List.iter
      (fun (name, tt) ->
        let n = Ovo_boolfun.Truthtable.arity tt in
        if exact && n <= 12 then
          let r = Ovo_core.Fs.run tt in
          Format.printf "%-16s n=%-2d optimal-size=%d@." name n r.Ovo_core.Fs.size
        else Format.printf "%-16s n=%-2d@." name n)
      (Ovo_boolfun.Families.catalogue ~max_arity)
  in
  let max_arity =
    Arg.(value & opt int 12 & info [ "max-arity" ] ~doc:"Largest arity to list.")
  in
  let exact =
    Arg.(value & flag & info [ "exact" ] ~doc:"Also compute optimal sizes.")
  in
  Cmd.v
    (Cmd.info "families" ~doc:"List the built-in benchmark function families")
    Term.(const run $ max_arity $ exact)
