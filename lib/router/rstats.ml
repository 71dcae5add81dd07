module Json = Ovo_obs.Json
module R = Ovo_metrics.Registry
module Histo = Ovo_metrics.Histo
module Window = Ovo_metrics.Window

type per_shard = {
  s_requests : R.counter;
  s_proxy_hist : R.histogram;
  s_up : R.gauge;
}

type t = {
  started : float;
  reg : R.t;
  shards : (string * per_shard) list;  (* fixed at startup, sorted *)
  (* request counters by endpoint (ping/solve/solve_many/...) *)
  m : Mutex.t;
  endpoints : (string, R.counter) Hashtbl.t;
  req_win : Window.t;
  retries : R.counter;
  shard_down : R.counter;
  items : R.counter;
  g_uptime : R.gauge;
  g_shards_up : R.gauge;
}

let known_endpoints =
  [ "ping"; "solve"; "solve_many"; "stats"; "metrics"; "shutdown" ]

let endpoint_counter reg name =
  R.counter reg ~help:"Requests routed, by endpoint"
    ~labels:[ ("endpoint", name) ]
    "ovo_router_requests_total"

let make_shard reg name =
  ( name,
    { s_requests =
        R.counter reg ~help:"Requests proxied, by shard"
          ~labels:[ ("shard", name) ]
          "ovo_router_shard_requests_total";
      s_proxy_hist =
        R.histogram reg ~help:"Proxy round-trip latency, by shard"
          ~labels:[ ("shard", name) ]
          "ovo_router_proxy_duration_ms";
      s_up =
        R.gauge reg ~help:"1 when the shard passes health checks"
          ~labels:[ ("shard", name) ]
          "ovo_router_shard_up" } )

let create ~shards () =
  let reg = R.create () in
  let g_uptime =
    R.gauge reg ~help:"Seconds since router start" "ovo_router_uptime_seconds"
  in
  let endpoints = Hashtbl.create 8 in
  List.iter
    (fun name -> Hashtbl.add endpoints name (endpoint_counter reg name))
    known_endpoints;
  let shard_rows =
    List.map (make_shard reg) (List.sort_uniq compare shards)
  in
  (* optimistic start mirrors {!Health} *)
  List.iter (fun (_, s) -> R.set s.s_up 1.) shard_rows;
  { started = Ovo_obs.Trace.monotonic (); reg; shards = shard_rows;
    m = Mutex.create (); endpoints;
    req_win = Window.create ();
    retries =
      R.counter reg ~help:"Proxy attempts re-sent to a failover replica"
        "ovo_router_retries_total";
    shard_down =
      R.counter reg
        ~help:"Requests answered shard_down (every owner unreachable)"
        "ovo_router_shard_down_total";
    items =
      R.counter reg ~help:"solve_many items scattered to shards"
        "ovo_router_items_total";
    g_uptime;
    g_shards_up =
      R.gauge reg ~help:"Shards currently passing health checks"
        "ovo_router_shards_up" }


let endpoint_of t name =
  match Hashtbl.find_opt t.endpoints name with
  | Some c -> c
  | None ->
      Mutex.lock t.m;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.m)
        (fun () ->
          match Hashtbl.find_opt t.endpoints name with
          | Some c -> c
          | None ->
              let c = endpoint_counter t.reg name in
              Hashtbl.add t.endpoints name c;
              c)

let record_request t ~endpoint =
  R.inc (endpoint_of t endpoint) 1;
  Window.add t.req_win 1.

let shard_of t name = List.assoc_opt name t.shards

let record_proxy t ~shard ~ms =
  match shard_of t shard with
  | None -> ()
  | Some s ->
      R.inc s.s_requests 1;
      R.observe s.s_proxy_hist ms

let record_retry t = R.inc t.retries 1
let record_shard_down t = R.inc t.shard_down 1
let record_items t n = if n > 0 then R.inc t.items n

let set_shard_up t ~shard up =
  (match shard_of t shard with
  | None -> ()
  | Some s -> R.set s.s_up (if up then 1. else 0.));
  let live =
    List.fold_left
      (fun acc (_, s) -> if R.gauge_value s.s_up > 0.5 then acc + 1 else acc)
      0 t.shards
  in
  R.set t.g_shards_up (float_of_int live)

let uptime_s t = Ovo_obs.Trace.monotonic () -. t.started

let refresh t =
  R.set t.g_uptime (uptime_s t);
  let live =
    List.fold_left
      (fun acc (_, s) -> if R.gauge_value s.s_up > 0.5 then acc + 1 else acc)
      0 t.shards
  in
  R.set t.g_shards_up (float_of_int live)

let dist_json (s : Histo.snapshot) =
  let q p =
    match Histo.quantile s p with None -> Json.Null | Some v -> Json.Float v
  in
  Json.Obj
    [ ("count", Json.Int s.Histo.count);
      ( "mean_ms",
        match Histo.mean s with None -> Json.Null | Some v -> Json.Float v );
      ("p50_ms", q 0.5);
      ("p99_ms", q 0.99) ]

let stats_json t ~health =
  refresh t;
  let shards =
    List.map
      (fun (name, up, since) ->
        let row =
          [ ("up", Json.Bool up); ("since_s", Json.Float since) ]
          @
          match shard_of t name with
          | None -> []
          | Some s ->
              let snap = R.histogram_snapshot s.s_proxy_hist in
              [ ("requests", Json.Int (R.counter_value s.s_requests));
                ("proxy", dist_json snap) ]
        in
        (name, Json.Obj row))
      health
  in
  Json.Obj
    [ ("role", Json.String "router");
      ("uptime_s", Json.Float (uptime_s t));
      ( "requests_per_s",
        Json.Obj
          [ ("1s", Json.Float (Window.rate t.req_win ~window:1));
            ("60s", Json.Float (Window.rate t.req_win ~window:60)) ] );
      ("retries", Json.Int (R.counter_value t.retries));
      ("shard_down", Json.Int (R.counter_value t.shard_down));
      ("items", Json.Int (R.counter_value t.items));
      ("shards", Json.Obj shards) ]

let prom t =
  refresh t;
  Ovo_metrics.Prom.render t.reg
