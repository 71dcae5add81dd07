(* ovo — exact and heuristic variable-ordering optimisation for decision
   diagrams, on the command line.  See `ovo --help` and README.md.  The
   shared flags live in Front; each command group has its own module. *)

open Cmdliner

let () =
  (* debug logging is enabled with OVO_VERBOSE=1 so every subcommand
     honours it without threading a flag through each term *)
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level
    (Some
       (match Sys.getenv_opt "OVO_VERBOSE" with
       | Some ("1" | "true" | "debug") -> Logs.Debug
       | Some _ | None -> Logs.Warning))

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "ovo" ~version:"1.0.0"
      ~doc:"Optimal variable ordering for binary decision diagrams"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            Optimize.cmd;
            Analysis.widths_cmd;
            Analysis.table1_cmd;
            Analysis.table2_cmd;
            Analysis.fig1_cmd;
            Analysis.compare_cmd;
            Analysis.shared_cmd;
            Analysis.spectrum_cmd;
            Analysis.show_cmd;
            Analysis.families_cmd;
            Learn.dataset_cmd;
            Learn.eval_orderers_cmd;
            Learn.eval_order_cmd;
            Service.serve_cmd;
            Service.submit_cmd;
            Fleet.router_cmd;
            Fleet.fleet_cmd;
            Fleet.bench_cmd;
            Service.top_cmd;
            Service.access_log_cmd;
          ]))
