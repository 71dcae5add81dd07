module Solver = Ovo_serve.Solver
module Cache = Ovo_serve.Cache
module Trace = Ovo_obs.Trace

let now = Trace.monotonic
let ms s = s *. 1000.

(* The daemon's per-request pipeline, called in this process one request
   at a time: admit the wire table, canonicalise it, probe the cache, and
   on a miss solve the canonical table and add it.  The cache holds every
   table of a run, so nothing is evicted. *)
let cache_cap = 2 * Inputs.serve_tables

type answer = {
  lat : float;
  cached : bool;
  ok : Check.verdict;
}

type asked = Inputs.request * float * (Solver.solved, string) result

let ask ?trace cache (r : Inputs.request) : asked =
  let t0 = now () in
  let res =
    match Solver.parse_table ~max_arity:Inputs.serve_arity r.Inputs.wire with
    | Error (`Bad m | `Too_large m) -> Error m
    | Ok tt -> (
        match
          Solver.solve ?trace ~cache ~cancel:Ovo_core.Cancel.never
            ~engine:Ovo_core.Engine.Seq ~kind:Ovo_core.Compact.Bdd tt
        with
        | Ok s -> Ok s
        | Error (`Cancelled _) -> Error "cancelled"
        | exception e -> Error (Printexc.to_string e))
  in
  (r, now () -. t0, res)

(* Answers are checked after the timed phase, so checking never slows
   the loop. *)
let check ~agreed ~pinned ((r, lat, res) : asked) =
  match res with
  | Ok s ->
      { lat; cached = s.Solver.cached;
        ok =
          Check.reply ?pinned:(pinned r.Inputs.base) ~agreed
            (Ovo_boolfun.Truthtable.of_string r.Inputs.wire) s }
  | Error m -> { lat; cached = false; ok = Check.Wrong m }

let lat_ms pick answers =
  List.filter_map
    (fun a -> if a.ok = Check.Ok && pick a then Some (ms a.lat) else None)
    answers

let cold = lat_ms (fun a -> not a.cached)
let warm = lat_ms (fun a -> a.cached)
let pct p = function [] -> 0. | xs -> Pct.nearest_rank ~p xs

let log_failures answers =
  List.iteri
    (fun i a ->
      match a.ok with
      | Check.Wrong m when i < 10 -> Report.log "  FAILED: %s" m
      | _ -> ())
    (List.filter (fun a -> a.ok <> Check.Ok) answers)

(* Everything before the timed phase: the schedule, an empty cache, and
   the warm-up requests on tables of their own. *)
let setup seed =
  let inputs = Inputs.serve seed in
  let cache = Cache.create ~cap:cache_cap () in
  let agreed = Check.agreement () in
  let warmup =
    Array.to_list
      (Array.map
         (fun r -> check ~agreed ~pinned:(fun _ -> None) (ask cache r))
         inputs.Inputs.warmup_requests)
  in
  (inputs, cache, agreed, warmup)

let setup_probe ~t_entry seed =
  ignore (setup seed);
  now () -. t_entry

let untraced ~t_entry ~seconds ~probes seed =
  let inputs, cache, agreed, warmup = setup seed in
  let setup_self = now () -. t_entry in
  let asked, phase =
    Exact.loop ~seconds inputs.Inputs.schedule (fun _ r -> ask cache r)
  in
  let rss = Report.peak_rss_mb "self" in
  let setups = setup_self :: List.map fst (probes ()) in
  let answers =
    List.map (check ~agreed ~pinned:(fun b -> inputs.Inputs.pinned_serve.(b))) asked
  in
  let all = warmup @ answers in
  let o = Check.tally (List.map (fun a -> a.ok) all) in
  let cold = cold answers and warm = warm answers in
  Report.log "[perfbench] serve-mixed seed=%d inputs=%s requests=%d cold=%d warm=%d"
    seed inputs.Inputs.s_fingerprint (List.length answers) (List.length cold)
    (List.length warm);
  Report.log "  cold p90 %.3f ms, warm p90 %.3f ms" (pct 90 cold) (pct 90 warm);
  Report.log "  setup_s runs: %s"
    (String.concat " " (List.map (Printf.sprintf "%.4f") setups));
  if List.length answers >= Array.length inputs.Inputs.schedule then
    Report.log "  the schedule ran out after %.1f s of %.1f" phase seconds;
  log_failures all;
  Report.log "  attempted=%d failed=%d fail_ratio=%g" o.attempted o.failed
    (Report.fail_ratio o);
  Report.log "  %.1f requests/s" (float (List.length answers) /. phase);
  ( o,
    [
      ("setup_s", Pct.median setups);
      (* a cold request is the pipeline's solve, from table to answer *)
      ("solve_s", Pct.median_or_zero cold /. 1000.);
      ("warm_p50_ms", pct 50 warm);
      ("peak_rss_mb", rss);
    ] )

(* ---------- the traced run ---------- *)

let traced ~out_dir ~seconds seed =
  let inputs, cache, agreed, warmup = setup seed in
  let hits0 = Cache.hits cache and misses0 = Cache.misses cache in
  let tracer = Trace.make () in
  let gcev = Gc_events.start () in
  let gc_minor = ref 0 and gc_major = ref 0 in
  let gc_words = ref 0. and gc_promoted = ref 0. in
  (* untraced and traced requests alternate; the untraced ones, with
     runtime events paused, are the reference of trace.overhead_ratio *)
  let asked, _ =
    Exact.loop ~seconds inputs.Inputs.schedule (fun i r ->
        if i mod 2 = 0 then Either.Left (Gc_events.paused gcev (fun () -> ask cache r))
        else begin
          let g0 = Gc.quick_stat () in
          let a =
            Trace.with_span tracer ~cat:"bench"
              ~args:(fun () ->
                [ ("request", Ovo_obs.Json.Int i);
                  ("parent", Ovo_obs.Json.String "bench.traced_run") ])
              "bench.request"
              (fun () -> ask ~trace:tracer cache r)
          in
          let g1 = Gc.quick_stat () in
          gc_minor := !gc_minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
          gc_major := !gc_major + g1.Gc.major_collections - g0.Gc.major_collections;
          gc_words := !gc_words +. g1.Gc.minor_words -. g0.Gc.minor_words;
          gc_promoted := !gc_promoted +. g1.Gc.promoted_words -. g0.Gc.promoted_words;
          Either.Right a
        end)
  in
  let ev = Gc_events.take gcev in
  Gc_events.close gcev;
  let pinned b = inputs.Inputs.pinned_serve.(b) in
  let base = List.map (check ~agreed ~pinned) (List.filter_map Either.find_left asked)
  and answers = List.map (check ~agreed ~pinned) (List.filter_map Either.find_right asked) in
  let o = Check.tally (List.map (fun a -> a.ok) (warmup @ base @ answers)) in
  let file = Filename.concat out_dir (Printf.sprintf "serve-mixed-seed%d.trace.json" seed) in
  Out_channel.with_open_text file (fun oc -> Ovo_obs.Export.write_chrome oc tracer);
  let spans = List.map Spans.of_trace (Trace.spans tracer) in
  let cold = cold answers and warm = warm answers in
  let dur_ms name = List.map ms (Spans.durations name spans) in
  let med name = Pct.median_or_zero (dur_ms name) in
  let canon = med "serve.canon" and probe = med "serve.cache_probe" in
  let dp, by_k = Spans.dp_metrics ~arity:Inputs.serve_arity spans in
  let requests = float (max 1 (List.length answers)) in
  let busy = List.fold_left (fun a x -> a +. x.lat) 0. answers in
  (* the traced requests' mix of hits and misses, timed at each half's
     medians: the two alternating halves need not hold the same mix *)
  let at_mix xs =
    (float (List.length cold) *. Pct.median_or_zero (lat_ms (fun a -> not a.cached) xs))
    +. (float (List.length warm) *. Pct.median_or_zero (lat_ms (fun a -> a.cached) xs))
  in
  let hits = Cache.hits cache - hits0 and misses = Cache.misses cache - misses0 in
  let warm_p50 = pct 50 warm in
  Report.log "[perfbench] serve-mixed seed=%d inputs=%s traced requests=%d (cold %d, warm %d) untraced=%d trace=%s"
    seed inputs.Inputs.s_fingerprint (List.length answers) (List.length cold)
    (List.length warm) (List.length base) file;
  log_failures (warmup @ base @ answers);
  Report.log "  stage breakdown of a warm request (medians, ms):";
  Report.log "    canonicalize                  %8.3f" canon;
  Report.log "    cache probe                   %8.3f" probe;
  Report.log "    admission and reply (rest)    %8.3f" (warm_p50 -. canon -. probe);
  Report.log "    warm p50                      %8.3f" warm_p50;
  Report.log "  cold request: p50 %.3f ms, of which DP (serve.solve) %.3f ms"
    (pct 50 cold) (med "serve.solve");
  List.iter
    (fun (what, xs) ->
      let n = List.length xs in
      if Pct.reportable ~p:99 n then
        Report.log "  %s p99 %.3f ms over %d samples (%d beyond)" what (pct 99 xs) n
          (Pct.beyond ~p:99 n)
      else Report.log "  %s p99 not reported: %d samples, fewer than 10 beyond" what n)
    [ ("warm", warm); ("cold", cold) ];
  Report.log "  per-k DP layers (median over cold requests, ms): %s"
    (String.concat " " (List.map (fun (k, d) -> Printf.sprintf "k%d=%.3f" k (ms d)) by_k));
  Report.log "  GC over the traced requests: %d minor collections, %.3f s paused, %d lost events"
    ev.Gc_events.minors ev.Gc_events.pause_s ev.Gc_events.lost;
  ( o,
    dp
    @ [
      ("gc.minor_collections", float !gc_minor /. requests);
      ("gc.major_collections", float !gc_major /. requests);
      ("gc.minor_words", !gc_words /. requests);
      ("gc.promoted_words", !gc_promoted /. requests);
      ("gc.pause_s", ev.Gc_events.pause_s /. requests);
      ("gc.pause_share", if busy > 0. then ev.Gc_events.pause_s /. busy else 0.);
      ("gc.lost_events", float ev.Gc_events.lost);
      ("serve.canon_ms", canon);
      ("serve.cache_probe_ms", probe);
      ("serve.dp_ms", med "serve.solve");
      ("serve.cache_hit_ratio", float hits /. float (max 1 (hits + misses)));
      ("serve.cache_hits", float hits);
      ("serve.cache_misses", float misses);
      ("trace.samples", float (List.length answers));
      ("trace.overhead_ratio",
       let b = at_mix base in
       if b > 0. then at_mix answers /. b else 0.);
    ] )
