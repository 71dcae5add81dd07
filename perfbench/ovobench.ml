(* The benchmark runner: [run.sh] builds it and passes its arguments
   through.

     ovobench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   The last line of standard output is the result object; the human
   report goes to standard error, traces into perfbench-out/. *)

let t_entry = Ovo_obs.Trace.monotonic ()
let out_dir = "perfbench-out"

let usage =
  "ovobench.exe --workload "
  ^ String.concat "|" (List.map Perfbench.Inputs.to_string Perfbench.Inputs.all)
  ^ " [--seed N] [--seconds S] [--trace 0|1]"

(* Set-up runs in fresh processes, as a one-shot [ovo optimize] or a new
   daemon pays it; these join this run's own, and [setup_s] is the
   median of all of them.  Each probe prints its set-up time and its
   VmHWM. *)
let extra_setups = 4

let probes ~workload ~seed () =
  List.init extra_setups (fun _ ->
      let args =
        [| Sys.executable_name; "--setup-probe"; "--workload"; workload;
           "--seed"; string_of_int seed |]
      in
      let ic = Unix.open_process_args_in Sys.executable_name args in
      let line = In_channel.input_line ic in
      let probe l = Scanf.sscanf_opt l "%f %f%!" (fun s rss -> (s, rss)) in
      match (Unix.close_process_in ic, Option.bind line probe) with
      | Unix.WEXITED 0, Some p -> p
      | _ -> failwith "set-up probe failed")

let () =
  let workload = ref "" and seed = ref Perfbench.Inputs.default_seed
  and seconds = ref 10. and trace = ref 0 and setup_probe = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1)");
      ("--setup-probe", Arg.Set setup_probe, " time one set-up and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Perfbench.Inputs.of_string !workload with
    | Some w -> w
    | None ->
        prerr_endline usage;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let module I = Perfbench.Inputs in
  let probes = probes ~workload:!workload ~seed:!seed in
  let outcome, metrics, expected =
    match (w, !setup_probe, !trace) with
    | I.Serve_mixed, true, _ ->
        let s = Perfbench.Serve.setup_probe ~t_entry !seed in
        Printf.printf "%.17g %.17g\n" s (Perfbench.Report.peak_rss_mb "self");
        exit 0
    | _, true, _ ->
        let s = Perfbench.Exact.setup_probe ~t_entry w !seed in
        Printf.printf "%.17g %.17g\n" s (Perfbench.Report.peak_rss_mb "self");
        exit 0
    | I.Serve_mixed, false, 0 ->
        let o, m =
          Perfbench.Serve.untraced ~t_entry ~seconds:!seconds ~probes !seed
        in
        (o, m, Perfbench.Names.end_to_end)
    | I.Serve_mixed, false, _ ->
        let o, m = Perfbench.Serve.traced ~out_dir ~seconds:!seconds !seed in
        (o, m, Perfbench.Names.per_layer)
    | _, false, 0 ->
        let o, m =
          Perfbench.Exact.untraced ~t_entry ~seconds:!seconds ~probes w !seed
        in
        (o, m, Perfbench.Names.end_to_end)
    | _, false, _ ->
        let o, m = Perfbench.Exact.traced ~out_dir ~seconds:!seconds w !seed in
        (o, m, Perfbench.Names.per_layer)
  in
  (* a layer this workload does not exercise reports 0 *)
  let metrics =
    List.map
      (fun (m : Perfbench.Names.metric) ->
        (m.name, Option.value (List.assoc_opt m.name metrics) ~default:0.))
      expected
  in
  List.iter
    (fun (name, v) -> Perfbench.Report.log "  %-26s %.6g" name v)
    metrics;
  print_endline (Perfbench.Report.line ~outcome ~expected metrics)
