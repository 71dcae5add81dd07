(* ovo optimize.  Every exact algorithm runs the one Friedman–Supowit
   recurrence — fs (Theorem 5), --weights (Lemma 3's weighted widths),
   and Tani's qdc, tower:N and simple over FS* — so they share one
   branch: flag checks, the memory budget and its spill store, the
   incumbent for --prune, printing and --stats. *)

open Cmdliner

type exact = Fs | Qdc | Tower of int | Simple

type heuristic =
  | Brute
  | Sifting
  | Window
  | Exact_block
  | Astar
  | Genetic
  | Influence
  | Scored
  | Annealing
  | Portfolio
  | Random_search

type algo = Exact of exact | Heuristic of heuristic | Unknown of string

let algos =
  [ ("fs", Exact Fs); ("qdc", Exact Qdc); ("simple", Exact Simple);
    ("brute", Heuristic Brute); ("sifting", Heuristic Sifting);
    ("window", Heuristic Window); ("exact-block", Heuristic Exact_block);
    ("astar", Heuristic Astar); ("genetic", Heuristic Genetic);
    ("influence", Heuristic Influence); ("scored", Heuristic Scored);
    ("annealing", Heuristic Annealing); ("portfolio", Heuristic Portfolio);
    ("random", Heuristic Random_search) ]

(* An unknown name parses and is refused after the flag checks, so
   misused checkpoint flags are reported first (pinned by test/store.t). *)
let algo_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "tower"; d ] -> (
        match int_of_string_opt d with
        | Some depth -> Ok (Exact (Tower depth))
        | None ->
            Error
              (`Msg
                 (Printf.sprintf
                    "invalid value '%s', expected tower:N with an integer \
                     depth N"
                    s)))
    | [ name ] when List.mem_assoc name algos -> Ok (List.assoc name algos)
    | _ -> Ok (Unknown s)
  in
  let print ppf = function
    | Exact (Tower depth) -> Format.fprintf ppf "tower:%d" depth
    | Unknown s -> Format.pp_print_string ppf s
    | a ->
        Format.pp_print_string ppf (fst (List.find (fun (_, b) -> b = a) algos))
  in
  Arg.conv (parse, print)

let algo_arg =
  Arg.(
    value & opt algo_conv (Exact Fs)
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:
          "One of $(b,fs) (exact DP, Theorem 5), $(b,qdc) (quantum \
           divide-and-conquer, Theorem 10, simulated), $(b,tower:N) \
           (Theorem 13 composition of depth N, simulated), $(b,brute), \
           $(b,simple) (Sec 3.1 single split, simulated), $(b,astar) (exact, \
           pruned), $(b,sifting), $(b,window), $(b,exact-block), \
           $(b,annealing), $(b,genetic), $(b,influence), $(b,scored) \
           (learned weighted scoring, see $(b,--model)), $(b,portfolio), \
           $(b,random).")

let weights_arg =
  Arg.(
    value
    & opt (some (list ~sep:',' int)) None
    & info [ "weights" ] ~docv:"W0,W1,.."
        ~doc:
          "Per-variable level weights: minimise the weighted node count \
           exactly (overrides $(b,--algo)).")

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"FILE"
        ~doc:"Write the resulting diagram in the ovo exchange format.")

(* ------------------------------------------------------------------ *)
(* persistence and memory flags (doc/persistence.md)                   *)

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "($(b,--algo fs) only)  Write a checkpoint record after every \
           completed DP layer, starting fresh.  A killed run continues \
           with $(b,--resume) $(i,FILE).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "($(b,--algo fs) only)  Resume from a checkpoint file written by \
           $(b,--checkpoint), and keep checkpointing to it.  The solution \
           is bit-identical to an uninterrupted run.  A missing file \
           degrades to a fresh checkpointed run; a file from a different \
           input or kind is an error.")

let crash_after_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "crash-after-layer" ] ~docv:"K"
        ~doc:
          "Testing hook: exit with status 42 right after the layer-$(i,K) \
           checkpoint record is written — a deterministic stand-in for \
           kill -9.")

let mem_budget_arg =
  Arg.(
    value
    & opt (some Front.mem_budget_conv) None
    & info [ "mem-budget" ] ~docv:"BYTES"
        ~doc:
          "($(b,--algo fs) only)  Cap the resident bytes of the DP's packed            cost/choice layers.  Completed layers past the cap spill to            CRC-framed segments under $(b,--spill-dir) and are reloaded            lazily during reconstruction; the solution is bit-identical to            an unbounded run.  Accepts $(b,k)/$(b,M)/$(b,G) suffixes            (binary multiples).")

let spill_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spill-dir" ] ~docv:"DIR"
        ~doc:
          "Directory for $(b,--mem-budget) spill segments (default: a fresh            $(b,ovo-spill-<pid>) under the system temp directory).  Segments            are deleted when the run finishes.")

let spill_mmap_arg =
  Arg.(
    value
    & flag
    & info [ "spill-mmap" ]
        ~doc:
          "Write $(b,--mem-budget) spill segments in the mappable raw \
           format and reload them via $(b,mmap)(2): reloaded extents stay \
           off the OCaml heap and the kernel pages them in (and back out) \
           on demand.  Corruption detection (CRC-32) is unchanged.")

let spill_extent_arg =
  Arg.(
    value
    & opt (some Front.mem_budget_conv) None
    & info [ "spill-extent" ] ~docv:"BYTES"
        ~doc:
          "($(b,--mem-budget) only)  Dense payload bytes per spill extent \
           (default 1M).  Layers are split into fixed-size extents and \
           spilled/reloaded at that granularity, so even a single layer \
           larger than the whole budget stays out of core.  Accepts \
           $(b,k)/$(b,M)/$(b,G) suffixes.")

let prune_arg =
  Arg.(
    value
    & vflag false
        [
          ( true,
            info [ "prune" ]
              ~doc:
                "Run the exact DP as a branch-and-bound: seed a free \
                 incumbent from the learned scorer, tighten it with \
                 sifting, skip every subset whose admissible lower \
                 bound proves it cannot beat the incumbent.  Same optimum, \
                 same ordering, fewer states; --stats gains a prune block.  \
                 Works with --algo fs, qdc, tower:N and simple (and with \
                 --weights); incompatible with --checkpoint/--resume." );
          (false, info [ "no-prune" ] ~doc:"Disable pruning (the default).");
        ])

(* ------------------------------------------------------------------ *)
(* printing                                                            *)

let print_result ~algo ~modeled (r : Ovo_core.Fs.result) =
  Format.printf "algorithm        : %s@." algo;
  Format.printf "minimum size     : %d nodes (%d non-terminal)@." r.size
    r.mincost;
  Format.printf "order (root first): %a@." Front.pp_order
    (Ovo_core.Fs.read_first_order r);
  Format.printf "order (paper pi)  : %a@." Front.pp_order r.order;
  Format.printf "level widths      : %a@." Front.pp_order r.widths;
  Option.iter (Format.printf "modeled cost      : %.3e table cells@.") modeled

let write_diagram ~save ~dot d =
  Option.iter
    (fun path ->
      Front.write_file path (Ovo_core.Diagram.serialize d);
      Format.printf "diagram saved     : %s@." path)
    save;
  Option.iter
    (fun path ->
      Front.write_file path (Ovo_core.Diagram.to_dot d);
      Format.printf "diagram written   : %s@." path)
    dot

(* ------------------------------------------------------------------ *)
(* running the algorithms                                             *)

(* A heuristic's label and the order it settles on (root first). *)
let heuristic ~trace ~metrics ~kind ~seed ~model h tt =
  let open Ovo_ordering in
  let rng () = Random.State.make [| seed |] in
  match h with
  | Brute -> ("brute force", (Brute.best ~metrics ~kind tt).order)
  | Sifting ->
      ("sifting (heuristic)", (Sifting.run ~trace ~metrics ~kind tt).order)
  | Window ->
      ( "window permutation (heuristic)",
        (Window.run ~trace ~metrics ~kind tt).order )
  | Exact_block ->
      ("exact-block hybrid", (Exact_block.run ~metrics ~kind tt).order)
  | Astar ->
      let r = Astar.run ~trace ~metrics ~kind tt in
      Format.printf "A* expanded %d of %d subsets@." r.expanded r.subsets_total;
      ("A* (exact, pruned)", r.order)
  | Genetic ->
      ( "genetic algorithm (heuristic)",
        (Genetic.run ~metrics ~kind ~rng:(rng ()) tt).order )
  | Influence ->
      ("influence static heuristic", (Influence.run ~metrics ~kind tt).order)
  | Scored ->
      ( "scored (learned static heuristic)",
        (Ovo_learn.Scorer.run ~trace ~metrics ~weights:model ~kind tt).order )
  | Annealing ->
      ( "simulated annealing (heuristic)",
        (Annealing.run ~metrics ~kind ~rng:(rng ()) tt).order )
  | Portfolio ->
      let r =
        Portfolio.run ~trace ~metrics ~kind ~rng:(rng ())
          ~extra:[ Ovo_learn.Scorer.portfolio_member ~weights:model ~kind () ]
          tt
      in
      List.iter
        (fun (e : Portfolio.entry) ->
          Format.printf "  %-12s %d@." e.method_name e.mincost)
        r.entries;
      (Printf.sprintf "portfolio (won by %s)" r.best.method_name, r.best.order)
  | Random_search ->
      ( "random search",
        (Random_search.run ~metrics ~kind ~rng:(rng ()) tt).order )

let run input kind algo dot save weights seed engine stats obs checkpoint
    resume crash_after fsync mem_budget spill_dir spill_mmap spill_extent
    prune model =
  Front.with_obs obs @@ fun trace ->
  match input with
  | Error m -> `Error (false, m)
  | Ok tt -> (
      try
        let refuse cond m = if cond then failwith m in
        let ck = checkpoint <> None || resume <> None in
        let exact =
          weights <> None || match algo with Exact _ -> true | _ -> false
        in
        refuse
          (weights <> None && (ck || crash_after <> None))
          "--checkpoint/--resume/--crash-after-layer do not combine with \
           --weights";
        refuse
          ((ck || crash_after <> None) && algo <> Exact Fs)
          "--checkpoint/--resume/--crash-after-layer need --algo fs";
        refuse
          (crash_after <> None && not ck)
          "--crash-after-layer needs --checkpoint or --resume";
        refuse
          (mem_budget <> None && not exact)
          "--mem-budget needs --algo fs, qdc, tower:N or simple";
        List.iter
          (fun (given, flag) ->
            refuse (given && mem_budget = None) (flag ^ " needs --mem-budget"))
          [ (spill_dir <> None, "--spill-dir"); (spill_mmap, "--spill-mmap");
            (spill_extent <> None, "--spill-extent") ];
        refuse (prune && not exact)
          "--prune needs --algo fs, qdc, tower:N or simple";
        refuse (prune && ck) "--prune is incompatible with --checkpoint/--resume";
        (* unified mode: the checkpoint doubles as the spill store, so
           a budget+checkpoint run writes each layer once and needs no
           spill directory *)
        let unified = mem_budget <> None && ck in
        refuse
          (unified && (spill_dir <> None || spill_mmap))
          "--checkpoint/--resume already serve as the spill store; drop \
           --spill-dir/--spill-mmap";
        refuse
          (checkpoint <> None && resume <> None)
          "pass --checkpoint (start fresh) or --resume (continue), not both";
        let model = Front.load_weights model in
        (* one context counts the run's pricing and the final
           evaluation, so --stats reports this run alone *)
        let metrics = Ovo_core.Metrics.create () in
        let membudget, spill_cleanup =
          match mem_budget with
          | Some budget_bytes when not unified ->
              let dir =
                match spill_dir with
                | Some d -> d
                | None ->
                    Filename.concat
                      (Filename.get_temp_dir_name ())
                      (Printf.sprintf "ovo-spill-%d" (Unix.getpid ()))
              in
              let sp = Ovo_store.Spill.create ~fsync ~mmap:spill_mmap dir in
              ( Some
                  (Ovo_core.Membudget.create ~budget_bytes
                     ?extent_bytes:spill_extent
                     ~sink:(Ovo_store.Spill.sink sp) ()),
                fun () -> Ovo_store.Spill.remove sp )
          | _ -> (None, ignore)
        in
        Fun.protect ~finally:spill_cleanup @@ fun () ->
        let bound =
          match (prune, weights) with
          | false, _ -> None
          | true, Some ws ->
              Some
                (Ovo_ordering.Seed.weighted_bound ~trace ~kind
                   ~weights:(Array.of_list ws)
                   (Ovo_boolfun.Mtable.of_truthtable tt))
          | true, None ->
              Some (Ovo_learn.Scorer.seeded_bound ~trace ~weights:model ~kind tt)
        in
        let quantum label sub =
          let ctx =
            Ovo_quantum.Opt_obdd.make_ctx ~engine ~trace ?membudget ?bound ()
          in
          let r, cost = Ovo_quantum.Opt_obdd.minimize ~kind ~ctx sub tt in
          print_result ~algo:label ~modeled:(Some cost) r;
          (membudget, r.diagram, ctx.metrics)
        in
        let membudget, diagram, metrics =
          match (weights, algo) with
          | None, Unknown s -> failwith ("unknown --algo " ^ s)
          | None, Heuristic h ->
              let label, order =
                heuristic ~trace ~metrics ~kind ~seed ~model h tt
              in
              let r =
                Ovo_core.Fs.of_state
                  (Ovo_core.Eval_order.state ~metrics ~kind tt order)
              in
              print_result ~algo:label ~modeled:None r;
              (None, r.diagram, metrics)
          | Some ws, _ ->
              let r =
                Ovo_core.Fs_weighted.run ~trace ~kind ~engine ~metrics
                  ?membudget ?prune:bound ~weights:(Array.of_list ws) tt
              in
              Format.printf "algorithm        : FS (exact, weighted)@.";
              Format.printf "weighted cost    : %d@." r.weighted_cost;
              Format.printf "node count       : %d@." r.mincost;
              Format.printf "order (root first): %a@." Front.pp_order
                (Ovo_core.Eval_order.read_first r.order);
              (membudget, r.diagram, metrics)
          | None, Exact Fs ->
              let meta = Ovo_store.Checkpoint.meta_of ~kind tt in
              let writer, resume_layers =
                match (checkpoint, resume) with
                | Some path, _ ->
                    (Some (Ovo_store.Checkpoint.create ~fsync ~path meta), [])
                | None, Some path ->
                    let w, layers =
                      Ovo_store.Checkpoint.open_resume ~fsync ~path meta
                    in
                    if layers <> [] then
                      Printf.eprintf
                        "[ovo] resuming %s: layers 1..%d already done\n%!" path
                        (List.length layers);
                    (Some w, layers)
                | None, None -> (None, [])
              in
              let membudget =
                match (mem_budget, writer) with
                | Some budget_bytes, Some w ->
                    (* spill through the checkpoint: evictions are
                       no-ops (the layer record is already appended) and
                       reloads slice the records on hand *)
                    Some
                      (Ovo_core.Membudget.create ~budget_bytes
                         ?extent_bytes:spill_extent
                         ~sink:(Ovo_store.Checkpoint.sink w) ())
                | _ -> membudget
              in
              let on_layer (p : Ovo_core.Subset_dp.progress) =
                Option.iter
                  (fun w ->
                    Ovo_store.Checkpoint.append_layer w p;
                    if crash_after = Some p.p_layer then begin
                      Ovo_store.Checkpoint.close w;
                      Printf.eprintf
                        "[ovo] --crash-after-layer %d: exiting 42\n%!"
                        p.p_layer;
                      exit 42
                    end)
                  writer
              in
              let r =
                Ovo_core.Fs.run ~trace ~kind ~engine ~metrics ?membudget
                  ?prune:bound ~on_layer ~resume:resume_layers tt
              in
              Option.iter Ovo_store.Checkpoint.close writer;
              print_result ~algo:"FS (exact)"
                ~modeled:
                  (Some
                     (float_of_int
                        (Ovo_core.Metrics.snapshot metrics).s_table_cells))
                r;
              (membudget, r.diagram, metrics)
          | None, Exact Qdc ->
              quantum "OptOBDD(6,alpha) [simulated]"
                (Ovo_quantum.Opt_obdd.theorem10 ())
          | None, Exact (Tower depth) ->
              quantum
                (Printf.sprintf "Gamma_%d tower [simulated]" depth)
                (Ovo_quantum.Opt_obdd.tower ~depth)
          | None, Exact Simple ->
              quantum "OptOBDD simple split [simulated]"
                (Ovo_quantum.Opt_obdd.simple_split ())
        in
        write_diagram ~save ~dot diagram;
        Front.emit_stats ?membudget ?prune:bound stats metrics;
        `Ok ()
      with Invalid_argument m | Failure m -> `Error (false, m))

let cmd =
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Find an optimal (or heuristic) variable ordering for a function")
    Term.(
      ret
        (const run $ Front.input $ Front.kind $ algo_arg $ Front.dot_arg
       $ save_arg $ weights_arg $ Front.seed_arg $ Front.engine $ Front.stats
       $ Front.obs $ checkpoint_arg $ resume_arg $ crash_after_arg
       $ Front.fsync_arg $ mem_budget_arg $ spill_dir_arg $ spill_mmap_arg
       $ spill_extent_arg $ prune_arg $ Front.model_arg))
