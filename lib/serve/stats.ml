module Json = Ovo_obs.Json
module R = Ovo_metrics.Registry
module Histo = Ovo_metrics.Histo
module Window = Ovo_metrics.Window

type endpoint_h = { e_requests : R.counter; e_hist : R.histogram }

type t = {
  started : float;
  reg : R.t;
  m : Mutex.t;  (* guards [endpoints] growth only *)
  endpoints : (string, endpoint_h) Hashtbl.t;
  (* outcome counters *)
  ok : R.counter;
  cached : R.counter;
  cancelled : R.counter;
  rejected : R.counter;
  errors : R.counter;
  (* solve-path histograms *)
  solve_hist : R.histogram;
  queue_wait_hist : R.histogram;
  (* rolling windows *)
  req_win : Window.t;
  probe_win : Window.t;  (* value 1. on cache hit, 0. on miss *)
  (* point-in-time gauges *)
  g_uptime : R.gauge;
  g_queue_depth : R.gauge;
  g_queue_cap : R.gauge;
  g_workers : R.gauge;
  g_workers_busy : R.gauge;
  g_cache_entries : R.gauge;
  g_cache_hits : R.gauge;
  g_cache_misses : R.gauge;
  g_cache_evictions : R.gauge;
  g_layer : R.gauge;
  g_layer_states : R.gauge;
  c_pruned : R.counter;
  g_gc_heap_words : R.gauge;
  g_gc_major : R.gauge;
  g_rss : R.gauge;
  busy : int Atomic.t;
}

(* Pre-registered so the exposition's name and label-set order never
   depends on which request arrived first. *)
let known_endpoints =
  [ "ping"; "solve"; "solve_many"; "stats"; "metrics"; "shutdown" ]
let outcome_labels = [ "ok"; "cached"; "cancelled"; "rejected"; "errors" ]

let make_endpoint reg name =
  { e_requests =
      R.counter reg ~help:"Requests handled, by endpoint"
        ~labels:[ ("endpoint", name) ]
        "ovo_requests_total";
    e_hist =
      R.histogram reg ~help:"Request handling latency, by endpoint"
        ~labels:[ ("endpoint", name) ]
        "ovo_request_duration_ms" }

let create () =
  let reg = R.create () in
  let g_uptime =
    R.gauge reg ~help:"Seconds since daemon start" "ovo_uptime_seconds"
  in
  let endpoints = Hashtbl.create 8 in
  List.iter
    (fun name -> Hashtbl.add endpoints name (make_endpoint reg name))
    known_endpoints;
  let outcome name =
    R.counter reg ~help:"Solve outcomes" ~labels:[ ("outcome", name) ]
      "ovo_outcomes_total"
  in
  let counters = List.map outcome outcome_labels in
  let nth = List.nth counters in
  { started = Ovo_obs.Trace.monotonic (); reg; m = Mutex.create (); endpoints;
    g_uptime;
    ok = nth 0; cached = nth 1; cancelled = nth 2; rejected = nth 3;
    errors = nth 4;
    solve_hist =
      R.histogram reg ~help:"Solve duration (cache hits included)"
        "ovo_solve_duration_ms";
    queue_wait_hist =
      R.histogram reg ~help:"Admission-to-worker queue wait"
        "ovo_queue_wait_ms";
    req_win = Window.create ();
    probe_win = Window.create ();
    g_queue_depth = R.gauge reg ~help:"Jobs waiting in the queue" "ovo_queue_depth";
    g_queue_cap = R.gauge reg ~help:"Queue capacity" "ovo_queue_capacity";
    g_workers = R.gauge reg ~help:"Worker pool size" "ovo_workers";
    g_workers_busy =
      R.gauge reg ~help:"Workers currently solving" "ovo_workers_busy";
    g_cache_entries =
      R.gauge reg ~help:"Result-cache entries" "ovo_cache_entries";
    g_cache_hits = R.gauge reg ~help:"Result-cache hits" "ovo_cache_hits";
    g_cache_misses = R.gauge reg ~help:"Result-cache misses" "ovo_cache_misses";
    g_cache_evictions =
      R.gauge reg ~help:"Result-cache evictions" "ovo_cache_evictions";
    g_layer =
      R.gauge reg ~help:"Last completed DP cardinality layer" "ovo_dp_layer";
    g_layer_states =
      R.gauge reg ~help:"States kept by the last completed DP layer"
        "ovo_dp_layer_states";
    c_pruned =
      R.counter reg ~help:"DP states pruned by branch-and-bound"
        "ovo_dp_states_pruned_total";
    g_gc_heap_words = R.gauge reg ~help:"OCaml heap words" "ovo_gc_heap_words";
    g_gc_major =
      R.gauge reg ~help:"Completed major GC collections"
        "ovo_gc_major_collections";
    g_rss =
      R.gauge reg ~help:"Resident set size in bytes (0 where unsupported)"
        "ovo_process_resident_bytes";
    busy = Atomic.make 0 }

let endpoint_of t name =
  match Hashtbl.find_opt t.endpoints name with
  | Some e -> e
  | None ->
      Mutex.lock t.m;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.m)
        (fun () ->
          match Hashtbl.find_opt t.endpoints name with
          | Some e -> e
          | None ->
              let e = make_endpoint t.reg name in
              Hashtbl.add t.endpoints name e;
              e)

let record t ~endpoint ~ms =
  let e = endpoint_of t endpoint in
  R.inc e.e_requests 1;
  R.observe e.e_hist ms;
  Window.add t.req_win ms

let record_outcome t outcome =
  match outcome with
  | `Ok -> R.inc t.ok 1
  | `Cached ->
      R.inc t.ok 1;
      R.inc t.cached 1
  | `Cancelled -> R.inc t.cancelled 1
  | `Rejected -> R.inc t.rejected 1
  | `Error -> R.inc t.errors 1

let uptime_s t = Ovo_obs.Trace.monotonic () -. t.started

let snap_of t endpoint =
  match Hashtbl.find_opt t.endpoints endpoint with
  | None -> Histo.empty
  | Some e -> R.histogram_snapshot e.e_hist

let avg_ms_opt t ~endpoint = Histo.mean (snap_of t endpoint)
let avg_ms t ~endpoint = Option.value (avg_ms_opt t ~endpoint) ~default:0.

(* ---------- solve-path instruments ---------- *)

let record_solve_ms t ms = R.observe t.solve_hist ms

let solve_ms_p50 t =
  Histo.quantile (R.histogram_snapshot t.solve_hist) 0.5

let record_queue_wait_ms t ms = R.observe t.queue_wait_hist ms
let note_probe t ~hit = Window.add t.probe_win (if hit then 1. else 0.)

let note_layer t ~layer ~states =
  R.set t.g_layer (float_of_int layer);
  R.set t.g_layer_states (float_of_int states)

let add_pruned t n = if n > 0 then R.inc t.c_pruned n
let worker_busy t = Atomic.incr t.busy
let worker_idle t = Atomic.decr t.busy

let page_size = 4096

let rss_bytes () =
  try
    let ic = open_in "/proc/self/statm" in
    let line = input_line ic in
    close_in ic;
    match String.split_on_char ' ' line with
    | _ :: resident :: _ -> (
        match int_of_string_opt resident with
        | Some pages -> pages * page_size
        | None -> 0)
    | _ -> 0
  with Sys_error _ | End_of_file -> 0

let sample_gc t =
  let st = Gc.quick_stat () in
  R.set t.g_gc_heap_words (float_of_int st.Gc.heap_words);
  R.set t.g_gc_major (float_of_int st.Gc.major_collections);
  R.set t.g_rss (float_of_int (rss_bytes ()))

let set_live t ~queue_depth ~queue_cap ~workers ~cache_entries ~cache_hits
    ~cache_misses ~cache_evictions =
  R.set t.g_uptime (uptime_s t);
  R.set t.g_queue_depth (float_of_int queue_depth);
  R.set t.g_queue_cap (float_of_int queue_cap);
  R.set t.g_workers (float_of_int workers);
  R.set t.g_workers_busy (float_of_int (Atomic.get t.busy));
  R.set t.g_cache_entries (float_of_int cache_entries);
  R.set t.g_cache_hits (float_of_int cache_hits);
  R.set t.g_cache_misses (float_of_int cache_misses);
  R.set t.g_cache_evictions (float_of_int cache_evictions)

(* ---------- renderings ---------- *)

let dist_json (s : Histo.snapshot) =
  let q p =
    match Histo.quantile s p with None -> Json.Null | Some v -> Json.Float v
  in
  Json.Obj
    [ ("count", Json.Int s.Histo.count);
      ( "mean_ms",
        match Histo.mean s with None -> Json.Null | Some v -> Json.Float v );
      ("p50_ms", q 0.5);
      ("p90_ms", q 0.9);
      ("p99_ms", q 0.99);
      ( "max_ms",
        if s.Histo.count = 0 then Json.Null else Json.Float s.Histo.vmax ) ]

let to_json ?store t ~queue_depth ~queue_cap ~workers ~cache =
  let endpoints =
    Hashtbl.fold (fun name e acc -> (name, e) :: acc) t.endpoints []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.filter_map (fun (name, e) ->
           let s = R.histogram_snapshot e.e_hist in
           if s.Histo.count = 0 then None
           else
             let q p =
               match Histo.quantile s p with
               | None -> Json.Null
               | Some v -> Json.Float v
             in
             Some
               ( name,
                 Json.Obj
                   [ ("count", Json.Int s.Histo.count);
                     ( "avg_ms",
                       match Histo.mean s with
                       | None -> Json.Null
                       | Some v -> Json.Float v );
                     ("p50_ms", q 0.5);
                     ("p90_ms", q 0.9);
                     ("p99_ms", q 0.99) ] ))
  in
  Json.Obj
    [ ("uptime_s", Json.Float (uptime_s t));
      ( "queue",
        Json.Obj
          [ ("depth", Json.Int queue_depth); ("cap", Json.Int queue_cap) ] );
      ("workers", Json.Int workers);
      ( "outcomes",
        Json.Obj
          [ ("ok", Json.Int (R.counter_value t.ok));
            ("cached", Json.Int (R.counter_value t.cached));
            ("cancelled", Json.Int (R.counter_value t.cancelled));
            ("rejected", Json.Int (R.counter_value t.rejected));
            ("errors", Json.Int (R.counter_value t.errors)) ] );
      ("cache", cache);
      ("store", match store with None -> Json.Null | Some j -> j);
      ("endpoints", Json.Obj endpoints) ]

let metrics_json t =
  let rps w = Json.Float (Window.rate t.req_win ~window:w) in
  let gi g = Json.Int (int_of_float (R.gauge_value g)) in
  let request_dists =
    known_endpoints
    |> List.filter_map (fun name ->
           let s = snap_of t name in
           if s.Histo.count = 0 then None else Some (name, dist_json s))
  in
  Json.Obj
    [ ("uptime_s", Json.Float (uptime_s t));
      ( "windows",
        Json.Obj
          [ ("rps_1s", rps 1);
            ("rps_10s", rps 10);
            ("rps_60s", rps 60);
            ("requests_60s", Json.Int (Window.count t.req_win ~window:60));
            ( "cache_hit_rate_60s",
              match Window.mean_value t.probe_win ~window:60 with
              | None -> Json.Null
              | Some r -> Json.Float r ) ] );
      ( "queue",
        Json.Obj [ ("depth", gi t.g_queue_depth); ("cap", gi t.g_queue_cap) ]
      );
      ( "workers",
        Json.Obj
          [ ("total", gi t.g_workers); ("busy", gi t.g_workers_busy) ] );
      ( "outcomes",
        Json.Obj
          [ ("ok", Json.Int (R.counter_value t.ok));
            ("cached", Json.Int (R.counter_value t.cached));
            ("cancelled", Json.Int (R.counter_value t.cancelled));
            ("rejected", Json.Int (R.counter_value t.rejected));
            ("errors", Json.Int (R.counter_value t.errors)) ] );
      ( "cache",
        Json.Obj
          [ ("entries", gi t.g_cache_entries);
            ("hits", gi t.g_cache_hits);
            ("misses", gi t.g_cache_misses);
            ("evictions", gi t.g_cache_evictions) ] );
      ( "latency_ms",
        Json.Obj
          ([ ("solve", dist_json (R.histogram_snapshot t.solve_hist));
             ( "queue_wait",
               dist_json (R.histogram_snapshot t.queue_wait_hist) ) ]
          @ [ ("request", Json.Obj request_dists) ]) );
      ( "engine",
        Json.Obj
          [ ("layer", gi t.g_layer);
            ("layer_states", gi t.g_layer_states);
            ("states_pruned_total", Json.Int (R.counter_value t.c_pruned)) ]
      );
      ( "gc",
        Json.Obj
          [ ("heap_words", gi t.g_gc_heap_words);
            ("major_collections", gi t.g_gc_major);
            ("resident_bytes", gi t.g_rss) ] ) ]

let prom t = Ovo_metrics.Prom.render t.reg
