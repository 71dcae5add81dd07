(* Terms, converters and printers shared by the ovo subcommands: the
   function to optimise, the DP engine and its counters, observability,
   and daemon addresses.  A flag that several commands take is defined
   here once, so each of them parses and documents it the same way. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Input specification: how the Boolean function reaches the tool.     *)

let load table expr pla output blif signal family =
  let open Ovo_boolfun in
  let given =
    List.filter_map
      (fun (flag, v) -> Option.map (fun s -> (flag, s)) v)
      [ ("table", table); ("expr", expr); ("pla", pla); ("blif", blif);
        ("family", family) ]
  in
  let unknown_signal = "unknown --signal for this BLIF model" in
  let tt =
    try
      match given with
      | [] ->
          Error "no input: pass one of --table, --expr, --pla, --blif, --family"
      | _ :: _ :: _ ->
          Error "pass exactly one of --table, --expr, --pla, --blif, --family"
      | [ ("table", s) ] -> Ok (Truthtable.of_string s)
      | [ ("expr", s) ] -> Ok (Expr.to_truthtable (Expr.of_string s))
      | [ ("pla", path) ] ->
          let p = Pla.of_file path in
          let n = Pla.outputs p in
          if output < 0 || output >= n then
            Error
              (Printf.sprintf "--output %d is out of range: %s has %d output%s"
                 output path n (if n = 1 then "" else "s"))
          else Ok (Pla.output_table p output)
      | [ ("blif", path) ] -> (
          let m = Blif.of_file path in
          match (signal, Blif.output_names m) with
          | Some name, _ | None, name :: _ -> (
              try Ok (Blif.output_table m name)
              with Not_found -> Error unknown_signal)
          | None, [] -> Error unknown_signal)
      | [ (_, name) ] -> (
          match List.assoc_opt name (Families.catalogue ~max_arity:24) with
          | Some tt -> Ok tt
          | None ->
              Error
                (Printf.sprintf
                   "unknown family %S; try `ovo families` for the list" name))
    with Failure m | Invalid_argument m | Sys_error m -> Error m
  in
  Result.map (fun tt -> (Option.value family ~default:"function", tt)) tt

(* The function named by --table/--expr/--pla/--blif/--family, with its
   report name (the family's, else "function").  A [result], so a
   command that may need no function (submit --ping) decides itself. *)
let named_input =
  let opt_string names docv doc =
    Arg.(value & opt (some string) None & info names ~docv ~doc)
  in
  Term.(
    const load
    $ opt_string [ "table" ] "BITS"
        "Truth table as a 0/1 string of length $(b,2^n) (entry $(i,i) is f at assignment code $(i,i))."
    $ opt_string [ "expr" ] "EXPR"
        "Boolean expression, e.g. $(b,'x0 & x1 | x2 ^ !x3')."
    $ opt_string [ "pla" ] "FILE" "PLA (espresso) file."
    $ Arg.(
        value & opt int 0
        & info [ "output" ] ~docv:"IDX"
            ~doc:"PLA output column to use (default 0).")
    $ opt_string [ "blif" ] "FILE" "BLIF (combinational) file."
    $ opt_string [ "signal" ] "NAME"
        "Output to use from a $(b,--blif) model (default: the first)."
    $ opt_string [ "family" ] "NAME"
        "Named benchmark function; list them with $(b,ovo families).")

let input = Term.(const (Result.map snd) $ named_input)

let kind =
  let kind_conv =
    Arg.enum [ ("bdd", Ovo_core.Compact.Bdd); ("zdd", Ovo_core.Compact.Zdd) ]
  in
  Arg.(
    value & opt kind_conv Ovo_core.Compact.Bdd
    & info [ "kind" ] ~docv:"KIND" ~doc:"Diagram kind: $(b,bdd) or $(b,zdd).")

let order_arg =
  Arg.(
    required
    & opt (some (list ~sep:',' int)) None
    & info [ "order" ] ~docv:"V0,V1,.."
        ~doc:"Ordering to evaluate, root (read-first) variable first.")

let seed_arg =
  Arg.(value & opt int 0x0BDD & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

(* ------------------------------------------------------------------ *)
(* The DP engine and its counters                                      *)

let engine =
  let engine_conv = Arg.enum [ ("seq", `Seq); ("par", `Par) ] in
  let resolve engine domains =
    match engine with
    | `Seq -> Ovo_core.Engine.Seq
    | `Par -> Ovo_core.Engine.par ~domains ()
  in
  Term.(
    const resolve
    $ Arg.(
        value & opt engine_conv `Seq
        & info [ "engine" ] ~docv:"ENGINE"
            ~doc:
              "DP engine: $(b,seq) (default) or $(b,par), which splits each \
               cardinality layer of the dynamic program across worker domains \
               (see $(b,--domains)).  Results are identical either way.")
    $ Arg.(
        value & opt int 0
        & info [ "domains" ] ~docv:"N"
            ~doc:
              "Worker domains for $(b,--engine par); $(b,0) (default) uses the \
               runtime's recommended count."))

let stats =
  let stats_conv = Arg.enum [ ("none", `None); ("text", `Text); ("json", `Json) ] in
  Arg.(
    value & opt stats_conv `None
    & info [ "stats" ] ~docv:"FMT"
        ~doc:
          "Print the run's operation counters (table cells, cost probes, \
           materialised states, ...) after the result: $(b,text) or \
           $(b,json).")

(* With an active --mem-budget the JSON object gains a "mem" field and
   with --prune a "prune" field; the default output is byte-identical to
   the pre-budget CLI (pinned by test/cli.t and test/obs.t). *)
let emit_stats ?membudget ?prune stats (m : Ovo_core.Metrics.t) =
  let s = Ovo_core.Metrics.snapshot m in
  match stats with
  | `None -> ()
  | `Text ->
      Format.printf "%a@." Ovo_core.Metrics.pp s;
      Option.iter
        (fun mb -> Format.printf "mem: %a@." Ovo_core.Membudget.pp mb)
        membudget;
      Option.iter
        (fun b -> Format.printf "prune: %a@." Ovo_core.Bound.pp b)
        prune
  | `Json -> (
      match (membudget, prune) with
      | None, None -> Format.printf "%s@." (Ovo_core.Metrics.to_json s)
      | _ ->
          let fields =
            Ovo_core.Metrics.to_args s
            @ (match membudget with
              | None -> []
              | Some mb -> [ ("mem", Ovo_core.Membudget.to_json_value mb) ])
            @
            match prune with
            | None -> []
            | Some b -> [ ("prune", Ovo_core.Bound.to_json_value b) ]
          in
          Format.printf "%s@."
            (Ovo_obs.Json.to_string (Ovo_obs.Json.Obj fields)))

let mem_budget_conv =
  Arg.conv' (Ovo_core.Membudget.parse_bytes, Format.pp_print_int)

let fsync_arg =
  let fsync_conv =
    Arg.conv'
      ( Ovo_store.Rlog.fsync_of_string,
        fun ppf f ->
          Format.pp_print_string ppf (Ovo_store.Rlog.fsync_to_string f) )
  in
  Arg.(
    value
    & opt fsync_conv Ovo_store.Rlog.Never
    & info [ "fsync" ] ~docv:"MODE"
        ~doc:
          "Durability policy for store and checkpoint writes: $(b,always), \
           $(b,never) (default; appends still survive process death — this \
           only matters for machine crashes), $(b,interval) (1s) or \
           $(b,interval:SECS).")

let model_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "model" ] ~docv:"FILE"
        ~doc:
          "Scorer weight model (JSON, doc/learning.md) for $(b,--algo \
           scored), the portfolio's scored member and the $(b,--prune) \
           incumbent.  Default: the built-in weights.")

(* every learn-aware command funnels model loading through here so a
   bad file is one uniform CLI error, not an exception trace *)
let load_weights = function
  | None -> Ovo_learn.Scorer.Weights.default
  | Some path -> (
      match Ovo_learn.Scorer.Weights.load path with
      | Ok w -> w
      | Error m -> failwith ("--model: " ^ m))

(* ------------------------------------------------------------------ *)
(* observability: --trace / --profile / --progress share one tracer    *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the run.  A $(i,FILE) ending in \
           $(b,.jsonl) gets one JSON object per event; any other name \
           gets Chrome $(b,trace_event) JSON, loadable in Perfetto or \
           chrome://tracing.  Schemas in doc/observability.md.")

type obs = { trace_file : string option; profile : bool; progress : bool }

let obs =
  Term.(
    const (fun trace_file profile progress -> { trace_file; profile; progress })
    $ trace_arg
    $ Arg.(
        value & flag
        & info [ "profile" ]
            ~doc:
              "Print a profile to stderr after the run: wall time, per-span \
               aggregates, the slowest spans, and GC allocation totals.")
    $ Arg.(
        value & flag
        & info [ "progress" ]
            ~doc:"Tick each completed DP phase on stderr as the run goes."))

(* Build the tracer the three flags imply ({!Ovo_obs.Trace.null} when
   none is set, so traced code paths cost one branch), run [f] under it,
   and emit the requested outputs — also when [f] raises, so a trace of
   a crashing run survives for inspection. *)
let with_obs { trace_file; profile; progress } f =
  if trace_file = None && (not profile) && not progress then
    f Ovo_obs.Trace.null
  else begin
    let trace = Ovo_obs.Trace.make () in
    if progress then
      Ovo_obs.Trace.on_event trace (function
        | Ovo_obs.Trace.Span s when s.Ovo_obs.Trace.cat = "dp" ->
            Printf.eprintf "[ovo] %-16s %8.3f ms\n%!" s.Ovo_obs.Trace.name
              ((s.Ovo_obs.Trace.stop -. s.Ovo_obs.Trace.start) *. 1e3)
        | _ -> ());
    let finish () =
      Option.iter
        (fun path ->
          Ovo_obs.Export.write_file path trace;
          Printf.eprintf "[ovo] trace written: %s (%d events)\n%!" path
            (Ovo_obs.Trace.event_count trace))
        trace_file;
      if profile then prerr_string (Ovo_obs.Export.summary trace)
    in
    Fun.protect ~finally:finish (fun () -> f trace)
  end

(* ------------------------------------------------------------------ *)
(* printing and files                                                  *)

let pp_order ppf order =
  Format.fprintf ppf "[%s]"
    (String.concat " " (List.map string_of_int (Array.to_list order)))

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE" ~doc:"Write the resulting diagram in Graphviz format.")

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* ------------------------------------------------------------------ *)
(* daemon addresses                                                    *)

let addr_conv =
  Arg.conv
    ( Ovo_serve.Protocol.addr_of_string,
      fun ppf a ->
        Format.pp_print_string ppf (Ovo_serve.Protocol.addr_to_string a) )

let listen_arg ~default ~doc =
  Arg.(
    value
    & opt addr_conv (Ovo_serve.Protocol.Unix_sock default)
    & info [ "listen" ] ~docv:"ADDR" ~doc)

let connect_arg
    ?(doc = "Server address (same forms as $(b,ovo serve --listen).)") () =
  Arg.(
    value
    & opt addr_conv (Ovo_serve.Protocol.Unix_sock "ovo.sock")
    & info [ "connect" ] ~docv:"ADDR" ~doc)

let prom_arg ~doc =
  let prom_conv =
    Arg.conv
      ( Ovo_serve.Prom_export.sink_of_string,
        fun ppf s ->
          Format.pp_print_string ppf (Ovo_serve.Prom_export.sink_to_string s)
      )
  in
  Arg.(
    value & opt (some prom_conv) None & info [ "prom" ] ~docv:"FILE|ADDR" ~doc)
