module Truthtable = Ovo_boolfun.Truthtable
module Cancel = Ovo_core.Cancel
module Trace = Ovo_obs.Trace
module Json = Ovo_obs.Json
module P = Protocol

type prom_sink = Prom_export.sink =
  | Prom_file of string
  | Prom_addr of P.addr

type config = {
  listen : P.addr;
  workers : int;
  queue_cap : int;
  cache_cap : int;
  max_arity : int;
  idle_timeout : float option;
  trace_file : string option;
  store_dir : string option;
  store_fsync : Ovo_store.Rlog.fsync;
  mem_budget : int option;
  prune : bool;
  orderer : [ `Exact | `Scored ];
  access_log : string option;
  prom : prom_sink option;
  telemetry : bool;
  shard_id : string option;
}

let default_config ~listen =
  { listen; workers = 2; queue_cap = 64; cache_cap = 256; max_arity = 16;
    idle_timeout = None; trace_file = None; store_dir = None;
    store_fsync = Ovo_store.Rlog.Never; mem_budget = None; prune = false;
    orderer = `Exact; access_log = None; prom = None; telemetry = true;
    shard_id = None }

type job = {
  j_id : int;  (* server-assigned sequence number, for the access log *)
  tt : Truthtable.t;
  j_kind : Ovo_core.Compact.kind;
  j_engine : Ovo_core.Engine.t;
  cancel : Cancel.t;
  enq_at : float;
  reply : P.response Ivar.t;
}

type t = {
  cfg : config;
  net : Net.listener;
  queue : job Bqueue.t;
  cache : Cache.t;
  store : Ovo_store.Result_store.t option;
  store_m : Mutex.t;  (* serialises WAL appends across workers *)
  stats : Stats.t;
  trace : Trace.t;
  mutable alog : Access_log.t option;  (* [None] once closed in [wait] *)
  alog_m : Mutex.t;  (* serialises access-log appends across workers *)
  req_seq : int Atomic.t;
  pending : int Atomic.t;  (* jobs admitted whose reply is not yet written *)
  mutable worker_threads : Thread.t list;
  mutable prom_export : Prom_export.t option;
}

let now = Trace.monotonic

(* ---------- per-connection request handling ---------- *)

(* Suggested backoff before the first solve has completed: with no
   solve duration observed there is nothing to extrapolate from, so
   fall back to a fixed default (and say so in the reply). *)
let default_retry_after_ms = 50.

(* Suggest waiting for roughly one median solve to clear; floor at
   10ms.  The estimate comes from the solve-duration histogram the
   workers feed — actual time spent solving — not the request-handling
   latency the old code extrapolated from (which for admitted solves
   measures only parse + enqueue, a wild underestimate under load).
   [`Default] marks the no-data fallback so the reply can say so. *)
let retry_after_ms t =
  match Stats.solve_ms_p50 t.stats with
  | Some p50 -> (Float.max 10. p50, `Observed)
  | None -> (default_retry_after_ms, `Default)

let log_access t entry =
  Mutex.lock t.alog_m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.alog_m)
    (fun () ->
      match t.alog with
      | None -> ()  (* not configured, or already closed during drain *)
      | Some log -> Access_log.append log entry)

let access_entry t ?(digest = "") ?(cached = false) ?(queue_ms = 0.)
    ?(solve_ms = 0.) ?(lower = -1) ?(upper = -1) ?(detail = "") ~req_id
    ~outcome () =
  { Access_log.at = Unix.gettimeofday (); req_id; endpoint = "solve";
    outcome; digest; cached; queue_ms; solve_ms; lower; upper; detail;
    shard = Option.value t.cfg.shard_id ~default:"" }

(* Admission result of one solve: [Done] replies immediately (reject,
   parse error, shutdown); [Queued] means the job is in the queue with
   [t.pending] raised — the caller must read the ivar and then drop
   [pending] once the reply is out.  Splitting admission from the
   (blocking) ivar read lets [Solve_many] admit a whole batch to the
   worker pool before waiting on any item. *)
type admission = Done of P.response | Queued of job

let admit_solve t (p : P.solve_params) =
  let req_id = Atomic.fetch_and_add t.req_seq 1 in
  if Net.stopping t.net then
    Done
      (P.Error
         { code = P.Shutting_down; message = "server is draining";
           retry_after_ms = None })
  else
    match Solver.parse_table ~max_arity:t.cfg.max_arity p.table with
    | Error (`Bad m) ->
        Stats.record_outcome t.stats `Error;
        log_access t (access_entry t ~req_id ~outcome:"error" ~detail:m ());
        Done (P.Error { code = P.Bad_request; message = m; retry_after_ms = None })
    | Error (`Too_large m) ->
        Stats.record_outcome t.stats `Error;
        log_access t (access_entry t ~req_id ~outcome:"error" ~detail:m ());
        Done (P.Error { code = P.Too_large; message = m; retry_after_ms = None })
    | Ok tt -> (
        (* the deadline clock starts at admission: queue wait counts *)
        let cancel =
          match p.deadline_ms with
          | None -> Cancel.make ()
          | Some ms -> Cancel.with_deadline (ms /. 1000.)
        in
        let job =
          { j_id = req_id; tt; j_kind = p.kind; j_engine = p.engine; cancel;
            enq_at = now (); reply = Ivar.create () }
        in
        match Bqueue.try_push t.queue job with
        | exception Bqueue.Closed ->
            Done
              (P.Error
                 { code = P.Shutting_down; message = "server is draining";
                   retry_after_ms = None })
        | `Full ->
            Stats.record_outcome t.stats `Rejected;
            log_access t
              (access_entry t ~req_id ~outcome:"rejected"
                 ~detail:"queue_full" ());
            let retry, basis = retry_after_ms t in
            Done
              (P.Error
                 { code = P.Queue_full;
                   message =
                     Printf.sprintf "queue is at capacity (%d jobs)%s"
                       (Bqueue.capacity t.queue)
                       (match basis with
                       | `Observed -> ""
                       | `Default ->
                           "; retry_after_ms is a fixed default (no solve \
                            latency observed yet)");
                   retry_after_ms = Some retry })
        | `Pushed ->
            (* [pending] stays raised until the reply has been written —
               the shutdown drain in [wait] keys off it *)
            Atomic.incr t.pending;
            Queued job)

let stats_json t =
  let store =
    Option.map
      (fun s ->
        Mutex.lock t.store_m;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.store_m)
          (fun () -> Ovo_store.Result_store.stats_json s))
      t.store
  in
  Stats.to_json ?store t.stats ~queue_depth:(Bqueue.length t.queue)
    ~queue_cap:(Bqueue.capacity t.queue) ~workers:t.cfg.workers
    ~cache:(Cache.to_json t.cache)

(* Refresh the point-in-time gauges right before any exposition so a
   scrape never reads stale queue/cache numbers. *)
let refresh_live t =
  Stats.sample_gc t.stats;
  Stats.set_live t.stats ~queue_depth:(Bqueue.length t.queue)
    ~queue_cap:(Bqueue.capacity t.queue) ~workers:t.cfg.workers
    ~cache_entries:(Cache.length t.cache) ~cache_hits:(Cache.hits t.cache)
    ~cache_misses:(Cache.misses t.cache)
    ~cache_evictions:(Cache.evictions t.cache)

let metrics_json t =
  refresh_live t;
  Stats.metrics_json t.stats

let prom_text t =
  refresh_live t;
  Stats.prom t.stats

let shutdown t = Net.shutdown t.net

let handle_request t send ({ id; op } : P.request) =
  let started = now () in
  let endpoint = P.op_name op in
  let write ?item body =
    Trace.with_span t.trace ~cat:"serve"
      ~args:(fun () ->
        [ ("id", Json.Int id); ("endpoint", Json.String endpoint) ])
      "serve.reply"
      (fun () -> send (P.reply ?item id body))
  in
  let finish ?item = function
    | Done body -> write ?item body
    | Queued job ->
        Fun.protect
          ~finally:(fun () -> Atomic.decr t.pending)
          (fun () -> write ?item (Ivar.read job.reply))
  in
  (match op with
  | P.Ping -> write P.Pong
  | P.Stats -> write (P.Ok_stats (stats_json t))
  | P.Metrics P.Mjson -> write (P.Ok_metrics (metrics_json t))
  | P.Metrics P.Mprom -> write (P.Ok_prom (prom_text t))
  | P.Shutdown -> write P.Bye
  | P.Solve p -> finish (admit_solve t p)
  | P.Solve_many [] ->
      write
        (P.Error
           { code = P.Bad_request; message = "solve_many: empty items";
             retry_after_ms = None })
  | P.Solve_many items ->
      (* admit the whole batch before blocking on any item so it runs
         across the worker pool instead of serialising; replies then
         stream back in item order regardless of completion order *)
      let admissions = List.map (admit_solve t) items in
      List.iteri (fun k a -> finish ~item:k a) admissions);
  Stats.record t.stats ~endpoint ~ms:((now () -. started) *. 1000.);
  (* reply to a shutdown request before acting on it *)
  if op = P.Shutdown then shutdown t

let conn_loop t fd =
  Net.serve_requests t.net fd
    ~on_bad_request:(fun () -> Stats.record_outcome t.stats `Error)
    (fun send req ->
      Trace.with_span t.trace ~cat:"serve"
        ~args:(fun () -> [ ("id", Json.Int req.P.id) ])
        "serve.request"
        (fun () -> handle_request t send req))

(* ---------- worker pool ---------- *)

let worker_loop t =
  let rec loop () =
    match Bqueue.pop t.queue with
    | None -> ()  (* queue closed and drained *)
    | Some job ->
        let queue_ms = (now () -. job.enq_at) *. 1000. in
        Trace.instant t.trace ~cat:"serve"
          ~args:(fun () -> [ ("ms", Json.Float queue_ms) ])
          "serve.queue_wait";
        if t.cfg.telemetry then Stats.record_queue_wait_ms t.stats queue_ms;
        Stats.worker_busy t.stats;
        let solve_start = now () in
        let stats = if t.cfg.telemetry then Some t.stats else None in
        let body, entry =
          match
            Solver.solve ~trace:t.trace ?stats ~cache:t.cache
              ~cancel:job.cancel ~engine:job.j_engine ~kind:job.j_kind
              ?mem_budget:t.cfg.mem_budget ~prune:t.cfg.prune
              ~orderer:t.cfg.orderer job.tt
          with
          | Ok s ->
              let solve_ms = (now () -. solve_start) *. 1000. in
              Stats.record_outcome t.stats (if s.cached then `Cached else `Ok);
              if t.cfg.telemetry then Stats.record_solve_ms t.stats solve_ms;
              ( P.Ok_solve
                  { digest = s.digest; mincost = s.mincost; size = s.size;
                    order = s.order; widths = s.widths; cached = s.cached;
                    queue_ms; solve_ms },
                access_entry t ~req_id:job.j_id
                  ~outcome:(if s.cached then "cached" else "ok")
                  ~digest:s.digest ~cached:s.cached ~queue_ms ~solve_ms
                  ~lower:s.mincost ~upper:s.mincost () )
          | Error (`Cancelled bounds) ->
              let solve_ms = (now () -. solve_start) *. 1000. in
              Stats.record_outcome t.stats `Cancelled;
              let message =
                match bounds with
                | None -> "deadline exceeded"
                | Some (lower, upper) when upper = max_int ->
                    Printf.sprintf
                      "deadline exceeded; proven lower bound %d" lower
                | Some (lower, upper) ->
                    Printf.sprintf
                      "deadline exceeded; best-so-far bounds [%d, %d]" lower
                      upper
              in
              let lower, upper =
                match bounds with
                | None -> (-1, -1)
                | Some (l, u) -> (l, (if u = max_int then -1 else u))
              in
              ( P.Cancelled message,
                access_entry t ~req_id:job.j_id ~outcome:"cancelled" ~queue_ms
                  ~solve_ms ~lower ~upper ~detail:message () )
          | exception e ->
              let solve_ms = (now () -. solve_start) *. 1000. in
              Stats.record_outcome t.stats `Error;
              let message = Printexc.to_string e in
              ( P.Error
                  { code = P.Internal; message; retry_after_ms = None },
                access_entry t ~req_id:job.j_id ~outcome:"error" ~queue_ms
                  ~solve_ms ~detail:message () )
        in
        Stats.worker_idle t.stats;
        log_access t entry;
        Ivar.fill job.reply body;
        loop ()
  in
  loop ()

(* ---------- lifecycle ---------- *)

let start cfg =
  let cfg = { cfg with workers = max 1 cfg.workers } in
  let net = Net.listen ?idle_timeout:cfg.idle_timeout cfg.listen in
  let trace =
    if cfg.trace_file = None then Trace.null else Trace.make ()
  in
  let store =
    Option.map
      (fun dir ->
        Ovo_store.Result_store.open_dir ~trace ~fsync:cfg.store_fsync dir)
      cfg.store_dir
  in
  let store_m = Mutex.create () in
  let persist =
    Option.map
      (fun s ~digest ~kind (e : Cache.entry) ->
        Mutex.lock store_m;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock store_m)
          (fun () ->
            Ovo_store.Result_store.append s
              { Ovo_store.Result_store.digest; kind; canon = e.Cache.canon;
                mincost = e.Cache.mincost; size = e.Cache.size;
                canon_order = e.Cache.canon_order;
                widths = e.Cache.widths }))
      store
  in
  let cache = Cache.create ~trace ?persist ~cap:(max 1 cfg.cache_cap) () in
  (* Warm-load persisted results.  [Cache.warm] skips the persist hook —
     these entries came from the store — and the normal digest-plus-
     equality probe still guards every later hit, so a record the store
     failed to catch degrades to a miss, not a wrong answer. *)
  let warm_loaded =
    match store with
    | None -> 0
    | Some s ->
        let entries = Ovo_store.Result_store.entries s in
        List.iter
          (fun (e : Ovo_store.Result_store.entry) ->
            Cache.warm cache ~digest:e.digest ~kind:e.kind
              { Cache.canon = e.canon; mincost = e.mincost; size = e.size;
                canon_order = e.canon_order; widths = e.widths })
          entries;
        List.length entries
  in
  if warm_loaded > 0 then
    Printf.eprintf "[ovo-serve] warm-loaded %d cached result%s from %s\n%!"
      warm_loaded
      (if warm_loaded = 1 then "" else "s")
      (Option.value cfg.store_dir ~default:"");
  let alog =
    Option.map
      (fun path ->
        let log, existing = Access_log.open_append path in
        if existing > 0 then
          Printf.eprintf
            "[ovo-serve] access log %s: %d existing entr%s\n%!" path existing
            (if existing = 1 then "y" else "ies");
        log)
      cfg.access_log
  in
  let t =
    { cfg; net; queue = Bqueue.create ~cap:(max 1 cfg.queue_cap);
      cache; store; store_m;
      stats = Stats.create (); trace; alog; alog_m = Mutex.create ();
      req_seq = Atomic.make 0; pending = Atomic.make 0; worker_threads = [];
      prom_export = None }
  in
  t.worker_threads <-
    List.init cfg.workers (fun _ -> Thread.create worker_loop t);
  Net.accept net (conn_loop t);
  t.prom_export <-
    Some
      (Prom_export.start ~sink:cfg.prom
         ~render:(fun () -> prom_text t)
         ~refresh:(fun () -> refresh_live t)
         ());
  t

(* Once intake has stopped: drain the queue and tear down. *)
let drain t () =
  let drained = Bqueue.length t.queue in
  Bqueue.close t.queue;
  List.iter Thread.join t.worker_threads;
  (* workers have filled every ivar; give connection threads (which we
     never join — they may be parked on idle clients) a bounded window
     to write the drained replies *)
  let deadline = now () +. 5. in
  while Atomic.get t.pending > 0 && now () < deadline do
    Thread.delay 0.01
  done;
  (* join the exporter threads, then write the final prom snapshot —
     {!Prom_export.stop_and_flush} owns that ordering, so after this
     line the exposition file can never be rewritten again *)
  Option.iter Prom_export.stop_and_flush t.prom_export;
  (* flush and CRC-close the access log; late stragglers see [None] *)
  Mutex.lock t.alog_m;
  (match t.alog with
  | None -> ()
  | Some log ->
      t.alog <- None;
      Access_log.close log);
  Mutex.unlock t.alog_m;
  (* workers are done: no more appends — sync and close the store *)
  Option.iter Ovo_store.Result_store.close t.store;
  Option.iter
    (fun path ->
      Ovo_obs.Export.write_file path t.trace;
      Printf.eprintf "[ovo-serve] trace written: %s (%d events)\n%!" path
        (Trace.event_count t.trace))
    t.cfg.trace_file;
  Printf.eprintf "[ovo-serve] shutdown: drained %d queued job%s\n%!" drained
    (if drained = 1 then "" else "s");
  Printf.eprintf "[ovo-serve] final stats: %s\n%!" (Json.to_string (stats_json t))

let wait t = Net.wait t.net ~drain:(drain t)

let run cfg =
  let t = start cfg in
  Net.stop_on_signals t.net;
  Printf.eprintf "[ovo-serve] listening on %s (%d workers, queue %d, cache %d)\n%!"
    (P.addr_to_string cfg.listen) (max 1 cfg.workers) cfg.queue_cap
    cfg.cache_cap;
  wait t
