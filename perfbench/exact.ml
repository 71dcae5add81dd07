module Tt = Ovo_boolfun.Truthtable
module Fs = Ovo_core.Fs
module Metrics = Ovo_core.Metrics
module Trace = Ovo_obs.Trace
module Json = Ovo_obs.Json

let now = Trace.monotonic

let engine (x : Inputs.exact) =
  if x.domains <= 1 then Ovo_core.Engine.Seq
  else Ovo_core.Engine.Par { domains = x.domains }

(* [ovo optimize --prune]: the scorer's free incumbent, tightened by
   sifting. *)
let seed ?trace (x : Inputs.exact) tt =
  if x.prune then
    Some (Ovo_learn.Scorer.seeded_bound ?trace ~kind:Ovo_core.Compact.Bdd tt)
  else None

let verdict (x : Inputs.exact) ?pinned ~metrics tt r =
  let cells = (Metrics.snapshot metrics).Metrics.s_table_cells in
  Check.exact ?table_cells:(if x.prune then None else Some cells) ?pinned tt r

type op = { wall : float; ok : Check.verdict }

(* One solve exactly as [ovo optimize] runs it, from the table to a
   checked result. *)
let solve (x : Inputs.exact) ?pinned tt =
  let t0 = now () in
  let ok =
    match
      let metrics = Metrics.create () in
      let prune = seed x tt in
      (Fs.run ~engine:(engine x) ~metrics ?prune tt, metrics)
    with
    | r, metrics -> verdict x ?pinned ~metrics tt r
    | exception e -> Check.Wrong (Printexc.to_string e)
  in
  { wall = now () -. t0; ok }

(* Run [f] on the pool's tables in order until [seconds] have passed
   (always at least one); the solve in flight is finished. *)
let loop ~seconds pool f =
  let start = now () in
  let stop = start +. seconds in
  let rec go i acc =
    if i >= Array.length pool || (acc <> [] && now () >= stop) then List.rev acc
    else go (i + 1) (f i pool.(i) :: acc)
  in
  let ops = go 0 [] in
  (ops, now () -. start)

let log_failures oks =
  List.iter
    (function Check.Wrong m -> Report.log "  FAILED: %s" m | Check.Ok -> ())
    oks

let ms s = s *. 1000.

(* Everything before the timed phase: the inputs, and the first solve
   that grows the heap. *)
let setup w seed_ =
  let x = Inputs.exact w seed_ in
  let warm = solve x x.warmup in
  (x, warm)

let setup_probe ~t_entry w seed_ =
  ignore (setup w seed_);
  now () -. t_entry

let untraced ~t_entry ~seconds ~probes w seed_ =
  let x, warm = setup w seed_ in
  let setup_self = now () -. t_entry in
  let setup_rss = Report.peak_rss_mb "self" in
  let ops, phase =
    loop ~seconds x.pool (fun i tt ->
        solve x ?pinned:x.pinned.(i) tt)
  in
  let rss = Report.peak_rss_mb "self" in
  let probed = probes () in
  let setups = setup_self :: List.map fst probed in
  (* The peak of a one-shot solve of the fixed warm-up table.  The
     timed phase's peak is the largest over the tables a run reaches,
     and one heavy hwb-13 permutation among a run's thirty lifts it
     from 39 to about 70 MB. *)
  let peaks = setup_rss :: List.map snd probed in
  let walls = List.map (fun (o : op) -> o.wall) ops in
  let oks = warm.ok :: List.map (fun (o : op) -> o.ok) ops in
  Report.log "[perfbench] %s seed=%d inputs=%s solves=%d (pool %d)"
    (Inputs.to_string w) seed_ x.x_fingerprint (List.length ops)
    (Array.length x.pool);
  Report.log "  setup_s runs: %s"
    (String.concat " " (List.map (Printf.sprintf "%.4f") setups));
  Report.log "  set-up peak RSS (MB): %s; after the timed phase %.1f MB"
    (String.concat " " (List.map (Printf.sprintf "%.1f") peaks)) rss;
  Report.log "  solve_ms: %s"
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.0f" (ms s)) walls));
  log_failures oks;
  let o = Check.tally oks in
  Report.log "  attempted=%d failed=%d fail_ratio=%g" o.attempted o.failed
    (Report.fail_ratio o);
  Report.log "  %.3f solves/s" (float (List.length ops) /. phase);
  let solve_s = Pct.median walls in
  ( o,
    [
      ("setup_s", Pct.median setups);
      ("solve_s", solve_s);
      (* the exact path has no result cache: a repeated table costs a
         full solve *)
      ("warm_p50_ms", ms solve_s);
      ("peak_rss_mb", Pct.median peaks);
    ] )

(* ---------- the traced run ---------- *)

type layer = {
  k : int;
  wall : float;
  kept : int;
  minor_words : float;
  pause : float;
  lost : int;
}

type traced_solve = {
  t_wall : float;
  t_ok : Check.verdict;
  sweep : float;
  backtrack : float;
  layers : layer list;
  counts : Metrics.snapshot;
  minor_collections : int;
  major_collections : int;
  minor_words : float;
  promoted_words : float;
  pause : float;
  lost : int;
  eng : Spans.engine;
  seed_s : float;
  sift_s : float;
  gap : float;
  pruned : int;
  kept_share : float;
  peak_layer : int;
  peak_resident : int;
}

let traced_solve ~tracer ~gcev (x : Inputs.exact) id ?pinned tt =
  let n = Tt.arity tt in
  let metrics = Metrics.create () and mb = Ovo_core.Membudget.unbounded () in
  let args parent () =
    [ ("solve", Json.Int id); ("parent", Json.String parent) ]
  in
  let marks = ref [] in
  let t0 = now () in
  let t_fs = ref t0 and t_last = ref t0 and incumbent = ref None in
  let g_fs = ref (Gc.quick_stat ()) and tail = ref None in
  let run () =
    let prune =
      if not x.prune then None
      else
        Trace.with_span tracer ~cat:"bench" ~args:(args "bench.solve")
          "bench.seed" (fun () -> seed ~trace:tracer x tt)
    in
    incumbent := Option.map Ovo_core.Bound.incumbent prune;
    ignore (Gc_events.take gcev);
    g_fs := Gc.quick_stat ();
    t_fs := now ();
    t_last := !t_fs;
    let g_last = ref !g_fs in
    let on_layer (p : Ovo_core.Subset_dp.progress) =
      let t = now () and g = Gc.quick_stat () in
      let ev = Gc_events.take gcev in
      marks :=
        {
          k = p.Ovo_core.Subset_dp.p_layer;
          wall = t -. !t_last;
          kept = Array.length p.Ovo_core.Subset_dp.p_entries;
          minor_words = g.Gc.minor_words -. !g_last.Gc.minor_words;
          pause = ev.Gc_events.pause_s;
          lost = ev.Gc_events.lost;
        }
        :: !marks;
      t_last := t;
      g_last := g
    in
    let r =
      Fs.run ~trace:tracer ~engine:(engine x) ~metrics ~membudget:mb ?prune
        ~on_layer tt
    in
    tail := Some (now (), Gc.quick_stat (), Gc_events.take gcev);
    let ok =
      Trace.with_span tracer ~cat:"bench" ~args:(args "bench.solve")
        "bench.check" (fun () -> verdict x ?pinned ~metrics tt r)
    in
    (r, prune, ok)
  in
  let result =
    Trace.with_span tracer ~cat:"bench"
      ~args:(args "bench.traced_run")
      "bench.solve"
      (fun () -> try Ok (run ()) with e -> Error (Printexc.to_string e))
  in
  let t_wall = now () -. t0 in
  let solve_spans =
    List.filter_map
      (fun s ->
        if s.Trace.start >= t0 then Some (Spans.of_trace s) else None)
      (Trace.spans tracer)
  in
  match (result, !tail) with
  | Error m, _ -> Error (Check.Wrong m)
  | Ok _, None -> Error (Check.Wrong "no result")
  | Ok (r, prune, ok), Some (t_ret, g_ret, ev_tail) ->
      let layers = List.rev !marks in
      let pause =
        List.fold_left (fun a (l : layer) -> a +. l.pause) ev_tail.Gc_events.pause_s layers
      and lost =
        List.fold_left (fun a (l : layer) -> a + l.lost) ev_tail.Gc_events.lost layers
      in
      let g0 = !g_fs in
      let subsets = (1 lsl n) - 1 in
      let kept = List.fold_left (fun a (l : layer) -> a + l.kept) 0 layers in
      Ok
        {
          t_wall;
          t_ok = ok;
          sweep = !t_last -. !t_fs;
          backtrack = t_ret -. !t_last;
          layers;
          counts = Metrics.snapshot metrics;
          minor_collections = g_ret.Gc.minor_collections - g0.Gc.minor_collections;
          major_collections = g_ret.Gc.major_collections - g0.Gc.major_collections;
          minor_words = g_ret.Gc.minor_words -. g0.Gc.minor_words;
          promoted_words = g_ret.Gc.promoted_words -. g0.Gc.promoted_words;
          pause;
          lost;
          eng = Spans.engine ~domains:x.domains solve_spans;
          seed_s = !t_fs -. t0;
          sift_s = Spans.total "sift.run" solve_spans;
          gap =
            (match !incumbent with
            | Some inc when r.Fs.mincost > 0 ->
                float inc /. float r.Fs.mincost
            | _ -> 0.);
          pruned =
            (match prune with
            | Some b -> Ovo_core.Bound.states_pruned b
            | None -> 0);
          kept_share = float kept /. float subsets;
          peak_layer = Ovo_core.Membudget.peak_layer_bytes mb;
          peak_resident = Ovo_core.Membudget.peak_resident_bytes mb;
        }

let hump n k = abs (k - (n / 2)) <= 1

let per_k solves =
  let ks =
    List.sort_uniq compare
      (List.concat_map (fun s -> List.map (fun l -> l.k) s.layers) solves)
  in
  List.map
    (fun k ->
      let of_k f =
        Pct.median_or_zero
          (List.concat_map
             (fun s ->
               List.filter_map
                 (fun l -> if l.k = k then Some (f l) else None)
                 s.layers)
             solves)
      in
      ( k,
        of_k (fun l -> l.wall),
        of_k (fun l -> float l.kept),
        of_k (fun l -> l.minor_words),
        of_k (fun l -> l.pause),
        List.fold_left
          (fun a s ->
            List.fold_left (fun a l -> if l.k = k then a + l.lost else a) a s.layers)
          0 solves ))
    ks

let report_tables ~domains ~n solves =
  Report.log "  per-k DP layers (median over %d traced solves):"
    (List.length solves);
  Report.log "  %3s %10s %8s %14s %11s %5s" "k" "wall_ms" "kept" "minor_words"
    "gc_pause_ms" "lost";
  List.iter
    (fun (k, wall, kept, words, pause, lost) ->
      Report.log "  %3d %10.3f %8.0f %14.0f %11.3f %5d%s" k (ms wall) kept words
        (ms pause) lost
        (if hump n k then "  (hump)" else ""))
    (per_k solves);
  if domains > 1 then begin
    Report.log "  per-domain busy and idle per layer (median over solves, ms):";
    let ks =
      match solves with
      | s :: _ -> List.map (fun (l : Spans.layer_engine) -> l.Spans.k) s.eng.Spans.layers
      | [] -> []
    in
    List.iter
      (fun k ->
        let layers =
          List.concat_map
            (fun s ->
              List.filter (fun (l : Spans.layer_engine) -> l.Spans.k = k) s.eng.Spans.layers)
            solves
        in
        let med f = Pct.median_or_zero (List.map f layers) in
        let wall = med (fun l -> l.Spans.wall) in
        let cells =
          List.init domains (fun w ->
              let busy = med (fun l -> l.Spans.busy.(w)) in
              Printf.sprintf "d%d busy %8.3f idle %8.3f" w (ms busy)
                (ms (Float.max 0. (wall -. busy))))
        in
        Report.log "  k=%-3d layer %8.3f  %s" k (ms wall) (String.concat "  " cells))
      ks
  end

let traced ~out_dir ~seconds w seed_ =
  let x, warm = setup w seed_ in
  let tracer = Trace.make () in
  let gcev = Gc_events.start () in
  (* untraced and traced solves alternate, so the untraced reference of
     trace.overhead_ratio sees the same host as the traced solves; it
     runs with runtime events paused *)
  let ops, _ =
    loop ~seconds x.pool (fun i tt ->
        if i mod 2 = 0 then
          Either.Left (Gc_events.paused gcev (fun () -> solve x ?pinned:x.pinned.(i) tt))
        else Either.Right (traced_solve ~tracer ~gcev x i ?pinned:x.pinned.(i) tt))
  in
  Gc_events.close gcev;
  let base = List.filter_map Either.find_left ops
  and traced_ops = List.filter_map Either.find_right ops in
  let solves = List.filter_map Result.to_option traced_ops in
  let oks =
    (warm.ok :: List.map (fun (o : op) -> o.ok) base)
    @ List.map (function Ok s -> s.t_ok | Error v -> v) traced_ops
  in
  let file =
    Filename.concat out_dir
      (Printf.sprintf "%s-seed%d.trace.json" (Inputs.to_string w) seed_)
  in
  Out_channel.with_open_text file (fun oc -> Ovo_obs.Export.write_chrome oc tracer);
  let n = Tt.arity x.warmup in
  Report.log "[perfbench] %s seed=%d inputs=%s traced=%d untraced=%d trace=%s"
    (Inputs.to_string w) seed_ x.x_fingerprint (List.length solves)
    (List.length base) file;
  log_failures oks;
  report_tables ~domains:x.domains ~n solves;
  let med f = Pct.median_or_zero (List.map f solves) in
  let medi f = med (fun s -> float (f s)) in
  let walls = per_k solves in
  let hump_s =
    List.fold_left
      (fun a (k, wall, _, _, _, _) -> if hump n k then a +. wall else a)
      0. walls
  and layer_max =
    List.fold_left (fun a (_, wall, _, _, _, _) -> Float.max a wall) 0. walls
  in
  let c f = medi (fun s -> f s.counts) in
  let untraced_s = Pct.median_or_zero (List.map (fun (o : op) -> o.wall) base) in
  ( Check.tally oks,
    [
      ("dp.sweep_s", med (fun s -> s.sweep));
      ("dp.backtrack_s", med (fun s -> s.backtrack));
      ("dp.hump_s", hump_s);
      ("dp.layer_max_s", layer_max);
      ( "dp.cells_per_s",
        med (fun s -> float s.counts.Metrics.s_table_cells /. s.sweep) );
      ("dp.table_cells", c (fun m -> m.Metrics.s_table_cells));
      ("dp.cost_probes", c (fun m -> m.Metrics.s_cost_probes));
      ("dp.states_materialised", c (fun m -> m.Metrics.s_states_materialised));
      ("dp.node_creations", c (fun m -> m.Metrics.s_node_creations));
      ("dp.node_table_copies", c (fun m -> m.Metrics.s_node_table_copies));
      ("gc.minor_collections", medi (fun s -> s.minor_collections));
      ("gc.major_collections", medi (fun s -> s.major_collections));
      ("gc.minor_words", med (fun s -> s.minor_words));
      ("gc.promoted_words", med (fun s -> s.promoted_words));
      ("gc.pause_s", med (fun s -> s.pause));
      ( "gc.pause_share",
        med (fun s ->
            s.pause /. ((s.sweep +. s.backtrack) *. float x.domains)) );
      ("gc.lost_events", float (List.fold_left (fun a s -> a + s.lost) 0 solves));
      ("engine.busy_s", med (fun s -> s.eng.Spans.busy_s));
      ("engine.idle_share", med (fun s -> s.eng.Spans.idle_share));
      ("engine.serial_s", med (fun s -> s.sweep -. s.eng.Spans.layer_s));
      ("engine.imbalance_s", med (fun s -> s.eng.Spans.imbalance_s));
      ("pack.peak_layer_bytes", medi (fun s -> s.peak_layer));
      ("pack.peak_resident_bytes", medi (fun s -> s.peak_resident));
      ("seed.wall_s", if x.prune then med (fun s -> s.seed_s) else 0.);
      ("seed.sift_s", med (fun s -> s.sift_s));
      ("seed.gap", med (fun s -> s.gap));
      ("prune.states_pruned", medi (fun s -> s.pruned));
      ("prune.kept_share", med (fun s -> s.kept_share));
      ("trace.samples", float (List.length solves));
      ( "trace.overhead_ratio",
        if untraced_s > 0. then med (fun s -> s.t_wall) /. untraced_s else 0. );
    ] )
