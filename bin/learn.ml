(* The learning commands: dataset, eval-orderers, eval-order
   (doc/learning.md). *)

open Cmdliner

let dataset_cmd =
  let run families n_max random seed kind model out store obs =
    Front.with_obs obs @@ fun trace ->
    try
      let open Ovo_learn.Dataset in
      let weights = Front.load_weights model in
      let spec = { families; n_max; random; seed; kind } in
      let on_row (r : row) =
        Format.printf "  %-16s n=%d opt=%-4d scored=%-4d sifting=%d@."
          r.name r.n r.costs.c_opt r.costs.c_scored r.costs.c_sifting
      in
      let rows = generate ~trace ~weights ?store ~on_row spec in
      Front.write_file out (to_ndjson rows);
      Format.printf "wrote %d rows: %s@." (List.length rows) out;
      `Ok ()
    with Failure m | Invalid_argument m | Sys_error m -> `Error (false, m)
  in
  let families =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "families" ] ~docv:"NAME,NAME,.."
          ~doc:
            "Restrict the corpus to these catalogue families (default: all; \
             list them with $(b,ovo families)).")
  in
  let n_max =
    Arg.(value & opt int 12
         & info [ "n-max" ] ~docv:"N"
             ~doc:"Instantiation cap for scalable families (and the arity \
                   cap for $(b,--random) functions).")
  in
  let random =
    Arg.(value & opt int 0
         & info [ "random" ] ~docv:"N"
             ~doc:"Append $(i,N) seeded random functions to the corpus.")
  in
  let seed =
    Arg.(value & opt int 1987
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Corpus seed: every random choice (random functions, \
                   sampled permutations) derives from it, so the same spec \
                   always writes the byte-identical file.")
  in
  let out =
    Arg.(value & opt string "dataset.ndjson"
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Output corpus, one JSON row per line (doc/learning.md).")
  in
  let store =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Resumable generation: completed rows are appended to a \
                   CRC-framed log keyed by the spec, so an interrupted run \
                   redoes only the in-flight row; the final corpus is \
                   byte-identical either way.")
  in
  Cmd.v
    (Cmd.info "dataset"
       ~doc:
         "Generate a ground-truth ordering corpus: exact optima from the \
          DP paired with structural features and heuristic baseline costs")
    Term.(
      ret
        (const run $ families $ n_max $ random $ seed $ Front.kind
       $ Front.model_arg $ out $ store $ Front.obs))

let eval_orderers_cmd =
  let run dataset model seed kind json obs =
    Front.with_obs obs @@ fun trace ->
    try
      match Ovo_learn.Dataset.of_ndjson (Front.read_file dataset) with
      | Error m -> `Error (false, dataset ^ ": " ^ m)
      | Ok rows ->
          let weights = Front.load_weights model in
          let stats =
            Ovo_learn.Gap.evaluate ~trace ~kind
              (Ovo_learn.Gap.default_orderers ~weights ~kind ~seed ())
              rows
          in
          if json then
            List.iter
              (fun s ->
                print_endline
                  (Ovo_obs.Json.to_string (Ovo_learn.Gap.stat_to_json s)))
              stats
          else Ovo_learn.Gap.report Format.std_formatter stats;
          `Ok ()
    with Failure m | Invalid_argument m | Sys_error m -> `Error (false, m)
  in
  let dataset =
    Arg.(
      required
      & opt (some string) None
      & info [ "dataset" ] ~docv:"FILE"
          ~doc:"A corpus written by $(b,ovo dataset).")
  in
  let seed =
    Arg.(value & opt int 0x0BDD
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Seed of the random-permutation baseline.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"One JSON object per orderer (NDJSON).")
  in
  Cmd.v
    (Cmd.info "eval-orderers"
       ~doc:
         "Score ordering heuristics against the exact optima of a dataset: \
          mean/max/p50/p90 optimality gap and regret per orderer")
    Term.(
      ret
        (const run $ dataset $ Front.model_arg $ seed $ Front.kind $ json
       $ Front.obs))

let eval_order_cmd =
  let run input kind order =
    match input with
    | Error m -> `Error (false, m)
    | Ok tt -> (
        try
          let n = Ovo_boolfun.Truthtable.arity tt in
          let rf = Array.of_list order in
          if Array.length rf <> n then
            failwith
              (Printf.sprintf
                 "--order has %d entries but the function has %d variables"
                 (Array.length rf) n);
          let seen = Array.make n false in
          Array.iter
            (fun v ->
              if v < 0 || v >= n then
                failwith
                  (Printf.sprintf "--order entry %d is outside 0..%d" v (n - 1));
              if seen.(v) then
                failwith (Printf.sprintf "--order repeats variable %d" v);
              seen.(v) <- true)
            rf;
          let pi = Ovo_core.Eval_order.read_first rf in
          let given = Ovo_core.Eval_order.mincost ~kind tt pi in
          let r =
            Ovo_core.Fs.run ~kind
              ~prune:(Ovo_learn.Scorer.seeded_bound ~kind tt)
              tt
          in
          let opt = r.Ovo_core.Fs.mincost in
          Format.printf "given cost    : %d@." given;
          Format.printf "optimal cost  : %d@." opt;
          Format.printf "optimal order : %a@." Front.pp_order
            (Ovo_core.Fs.read_first_order r);
          Format.printf "gap           : %.4f@."
            (if opt = 0 then 1.0 else float_of_int given /. float_of_int opt);
          Format.printf "regret        : %d@." (given - opt);
          `Ok ()
        with Failure m | Invalid_argument m -> `Error (false, m))
  in
  Cmd.v
    (Cmd.info "eval-order"
       ~doc:
         "Price a user-supplied ordering against the exact optimum: cost, \
          optimality gap and regret in nodes")
    Term.(ret (const run $ Front.input $ Front.kind $ Front.order_arg))
