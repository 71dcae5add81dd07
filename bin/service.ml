(* The ordering service: serve, submit, top, access-log
   (doc/service.md). *)

open Cmdliner
module P = Ovo_serve.Protocol

let serve_cmd =
  let run listen workers queue_cap cache_cap max_arity idle_timeout trace_file
      store no_store fsync mem_budget prune orderer access_log prom
      no_telemetry shard_id =
    Ovo_serve.Server.run
      { Ovo_serve.Server.listen; workers; queue_cap; cache_cap; max_arity;
        idle_timeout; trace_file; store_dir = (if no_store then None else store);
        store_fsync = fsync; mem_budget; prune; orderer; access_log; prom;
        telemetry = not no_telemetry; shard_id }
  in
  let listen =
    Front.listen_arg ~default:"ovo.sock"
      ~doc:
        "Address to serve on: a Unix-socket path ($(b,unix:/tmp/ovo.sock) \
         or any string with a slash) or $(b,host:port) for TCP.  Default \
         $(b,ovo.sock) in the current directory."
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N" ~doc:"Worker pool size.")
  in
  let queue_cap =
    Arg.(value & opt int 64
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"Job-queue depth before requests are rejected with \
                   $(b,queue_full) + $(b,retry_after_ms).")
  in
  let cache_cap =
    Arg.(value & opt int 256
         & info [ "cache-cap" ] ~docv:"N"
             ~doc:"Result-cache entries (LRU eviction).")
  in
  let max_arity =
    Arg.(value & opt int 16
         & info [ "max-arity" ] ~docv:"N"
             ~doc:"Largest accepted arity; bigger requests get \
                   $(b,too_large).")
  in
  let idle_timeout =
    Arg.(value & opt (some float) None
         & info [ "idle-timeout" ] ~docv:"SECS"
             ~doc:"Shut down after this many seconds without a request \
                   (safety net for scripted runs).")
  in
  let store =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Durable result store: recover and warm-load the cache \
                   from $(i,DIR) at startup, persist every solved result \
                   to its write-ahead log (doc/persistence.md).")
  in
  let no_store =
    Arg.(value & flag
         & info [ "no-store" ]
             ~doc:"Run purely in memory even when $(b,--store) is given \
                   (the flag wins).")
  in
  let mem_budget =
    Arg.(value & opt (some Front.mem_budget_conv) None
         & info [ "mem-budget" ] ~docv:"BYTES"
             ~doc:"Per-solve cap on resident DP layer bytes: big requests \
                   degrade to out-of-core (spilling to a scratch directory \
                   under the system temp dir) instead of growing the \
                   daemon's memory without bound.  Accepts k/M/G suffixes.")
  in
  let prune =
    Arg.(value & flag
         & info [ "prune" ]
             ~doc:"Run every cache-miss solve as a sifting-seeded exact                    branch-and-bound: identical answers, fewer DP states,                    and deadline-cancelled replies carry the best-so-far                    bound pair.")
  in
  let orderer =
    let orderer_conv = Arg.enum [ ("exact", `Exact); ("scored", `Scored) ] in
    Arg.(value & opt orderer_conv `Exact
         & info [ "orderer" ] ~docv:"WHO"
             ~doc:"What answers a cache miss: $(b,exact) (default) runs \
                   the DP; $(b,scored) replies with the learned scorer's \
                   static ordering in heuristic time — a valid ordering \
                   and its achievable cost, not a proven optimum, and \
                   never cached.")
  in
  let access_log =
    Arg.(value & opt (some string) None
         & info [ "access-log" ] ~docv:"FILE"
             ~doc:"Append one CRC-framed structured entry per solve request \
                   (digest, outcome, queue wait, solve duration, cache hit, \
                   bound window).  A torn tail from a crash is recovered on \
                   reopen; dump with $(b,ovo access-log) $(i,FILE).")
  in
  let prom =
    Front.prom_arg
      ~doc:
        "Export the Prometheus text exposition: a path (anything with a \
         slash, or a bare filename) is atomically rewritten every second; \
         $(b,host:port) serves it per scrape over HTTP."
  in
  let no_telemetry =
    Arg.(value & flag
         & info [ "no-telemetry" ]
             ~doc:"Skip per-request instrument updates (histograms, windows, \
                   engine gauges) — for measuring their overhead; outcome \
                   counters and $(b,stats) stay on.")
  in
  let shard_id =
    Arg.(value & opt (some string) None
         & info [ "shard-id" ] ~docv:"NAME"
             ~doc:"Fleet identity of this daemon (set by $(b,ovo fleet up)): \
                   stamped on every access-log entry so merged fleet logs \
                   stay attributable.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the ordering service: a daemon with a bounded job queue, a \
          worker pool on the exact DP engine, a canonical result cache, \
          and an optional durable store (protocol in doc/service.md)")
    Term.(
      const run $ listen $ workers $ queue_cap $ cache_cap $ max_arity
      $ idle_timeout $ Front.trace_arg $ store $ no_store $ Front.fsync_arg
      $ mem_budget $ prune $ orderer $ access_log $ prom $ no_telemetry
      $ shard_id)

let cannot_reach addr e =
  `Error
    ( false,
      Printf.sprintf "cannot reach server at %s: %s" (P.addr_to_string addr)
        (Unix.error_message e) )

let submit_cmd =
  let run connect connect_timeout retries input kind engine deadline_ms json
      ping stats_req metrics_req prom_req shutdown =
    let fail m = `Error (false, m) in
    let request op =
      try
        Ovo_serve.Client.with_conn ?timeout:connect_timeout ~retries connect
        @@ fun c ->
        match Ovo_serve.Client.roundtrip c { P.id = 1; op } with
        | Error (`Msg m) -> fail m
        | Ok reply -> (
            match reply.P.body with
            | _ when json -> print_endline (P.reply_to_line reply); `Ok ()
            | P.Pong -> print_endline "pong"; `Ok ()
            | P.Bye -> print_endline "bye"; `Ok ()
            | P.Ok_stats s ->
                print_endline (Ovo_obs.Json.to_string s); `Ok ()
            | P.Ok_metrics m ->
                print_endline (Ovo_obs.Json.to_string m); `Ok ()
            | P.Ok_prom text -> print_string text; `Ok ()
            | P.Ok_solve r ->
                Format.printf "digest            : %s@." r.P.digest;
                Format.printf "minimum size      : %d nodes (%d non-terminal)@."
                  r.P.size r.P.mincost;
                Format.printf "order (root first): %a@." Front.pp_order r.P.order;
                Format.printf "level widths      : %a@." Front.pp_order r.P.widths;
                Format.printf "cached            : %b@." r.P.cached;
                `Ok ()
            | P.Cancelled m ->
                Printf.eprintf "ovo: request cancelled: %s\n%!" m;
                exit 3
            | P.Error e ->
                fail
                  (Printf.sprintf "server error (%s): %s%s"
                     (P.error_code_to_string e.code) e.message
                     (match e.retry_after_ms with
                     | Some ms -> Printf.sprintf " (retry after %.0f ms)" ms
                     | None -> "")))
      with Unix.Unix_error (e, _, _) -> cannot_reach connect e
    in
    if ping then request P.Ping
    else if stats_req then request P.Stats
    else if metrics_req then request (P.Metrics P.Mjson)
    else if prom_req then request (P.Metrics P.Mprom)
    else if shutdown then request P.Shutdown
    else
      match input with
      | Error m -> fail m
      | Ok tt ->
          request
            (P.Solve
               { P.table = Ovo_boolfun.Truthtable.to_string tt; kind; engine;
                 deadline_ms })
  in
  let connect_timeout =
    Arg.(value & opt (some float) None
         & info [ "connect-timeout" ] ~docv:"SECS"
             ~doc:"Bound each connection attempt (a TCP connect to a dead \
                   host can otherwise block for minutes).")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry a transient connection failure (refused, reset, \
                   missing socket, timeout) up to $(i,N) extra times with \
                   exponential backoff (50 ms doubling, capped at 2 s) — \
                   rides out a daemon or router restart.")
  in
  let deadline_ms =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Per-job deadline; an expired job is aborted between DP \
                   layers and answered with $(b,cancelled) (exit code 3).")
  in
  let switch name doc = Arg.(value & flag & info [ name ] ~doc) in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a function to a running $(b,ovo serve) daemon"
       ~exits:
         (Cmd.Exit.info 3 ~doc:"the request was cancelled (deadline exceeded)"
         :: Cmd.Exit.defaults))
    Term.(
      ret
        (const run $ Front.connect_arg () $ connect_timeout $ retries
       $ Front.input $ Front.kind $ Front.engine $ deadline_ms
       $ switch "json" "Print the raw NDJSON reply line."
       $ switch "ping" "Just check the server is up."
       $ switch "stats"
           "Fetch the server's stats report (uptime, queue depth, cache hit \
            rate, per-endpoint latency percentiles)."
       $ switch "metrics"
           "Fetch the server's aggregated telemetry as JSON (windowed rates, \
            latency distributions, engine gauges; schema in doc/service.md)."
       $ switch "prom" "Fetch the server's Prometheus text exposition."
       $ switch "shutdown" "Ask the server to drain its queue and exit."))

let top_cmd =
  let module J = Ovo_obs.Json in
  (* one dashboard frame, rendered from the metrics-op JSON *)
  let render addr m =
    let buf = Buffer.create 1024 in
    let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let f path = Option.bind (J.find_path path m) J.to_float_opt in
    let i path = Option.bind (J.find_path path m) J.to_int_opt in
    let f0 path = Option.value (f path) ~default:0. in
    let i0 path = Option.value (i path) ~default:0 in
    bpf "ovo top — %s — uptime %.1fs\n" (P.addr_to_string addr)
      (f0 [ "uptime_s" ]);
    bpf "queue    %d/%d    workers %d/%d busy\n"
      (i0 [ "queue"; "depth" ]) (i0 [ "queue"; "cap" ])
      (i0 [ "workers"; "busy" ]) (i0 [ "workers"; "total" ]);
    bpf "rates    %.1f rps (1s)  %.1f (10s)  %.1f (60s)   %d requests/60s%s\n"
      (f0 [ "windows"; "rps_1s" ]) (f0 [ "windows"; "rps_10s" ])
      (f0 [ "windows"; "rps_60s" ])
      (i0 [ "windows"; "requests_60s" ])
      (match f [ "windows"; "cache_hit_rate_60s" ] with
      | None -> ""
      | Some r -> Printf.sprintf "  cache hit %.0f%%" (100. *. r));
    let dist label path =
      match i (path @ [ "count" ]) with
      | None | Some 0 -> ()
      | Some count ->
          bpf "%-8s p50 %.2fms  p90 %.2f  p99 %.2f  max %.2f  (n=%d)\n" label
            (f0 (path @ [ "p50_ms" ]))
            (f0 (path @ [ "p90_ms" ]))
            (f0 (path @ [ "p99_ms" ]))
            (f0 (path @ [ "max_ms" ]))
            count
    in
    dist "solve" [ "latency_ms"; "solve" ];
    dist "qwait" [ "latency_ms"; "queue_wait" ];
    bpf "outcomes ok %d  cached %d  cancelled %d  rejected %d  errors %d\n"
      (i0 [ "outcomes"; "ok" ]) (i0 [ "outcomes"; "cached" ])
      (i0 [ "outcomes"; "cancelled" ]) (i0 [ "outcomes"; "rejected" ])
      (i0 [ "outcomes"; "errors" ]);
    bpf "engine   layer %d (%d states)  pruned %d  spilled %d B\n"
      (i0 [ "engine"; "layer" ]) (i0 [ "engine"; "layer_states" ])
      (i0 [ "engine"; "states_pruned_total" ])
      (i0 [ "engine"; "spill_bytes_total" ]);
    bpf "gc       heap %d words  majors %d  rss %d B\n"
      (i0 [ "gc"; "heap_words" ]) (i0 [ "gc"; "major_collections" ])
      (i0 [ "gc"; "resident_bytes" ]);
    Buffer.contents buf
  in
  let run connect interval once =
    let fetch () =
      Ovo_serve.Client.with_conn connect @@ fun c ->
      match Ovo_serve.Client.roundtrip c { P.id = 1; op = P.Metrics P.Mjson } with
      | Ok { P.body = P.Ok_metrics m; _ } -> Ok m
      | Ok { P.body = P.Error { message; _ }; _ } -> Error message
      | Ok _ -> Error "unexpected reply to metrics op"
      | Error (`Msg m) -> Error m
    in
    try
      if once then
        match fetch () with
        | Ok m -> print_string (render connect m); `Ok ()
        | Error m -> `Error (false, m)
      else
        let rec loop () =
          (match fetch () with
          | Ok m ->
              (* clear screen + home, like top(1) *)
              print_string "\027[2J\027[H";
              print_string (render connect m);
              flush stdout
          | Error m -> Printf.eprintf "ovo top: %s\n%!" m);
          Unix.sleepf interval;
          loop ()
        in
        loop ()
    with Unix.Unix_error (e, _, _) -> cannot_reach connect e
  in
  let interval =
    Arg.(value & opt float 1.
         & info [ "interval" ] ~docv:"SECS" ~doc:"Refresh period.")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Print a single frame and exit (no screen clearing) — \
                   scriptable.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard for a running $(b,ovo serve) daemon: \
          queue depth, worker occupancy, windowed request rates, latency \
          quantiles, engine progress")
    Term.(ret (const run $ Front.connect_arg () $ interval $ once))

let access_log_cmd =
  let run path json =
    match Ovo_serve.Access_log.read path with
    | Error m -> `Error (false, m)
    | Ok (entries, recovery) ->
        List.iter
          (fun (e : Ovo_serve.Access_log.entry) ->
            if json then
              print_endline
                (Ovo_obs.Json.to_string (Ovo_serve.Access_log.entry_to_json e))
            else
              Printf.printf
                "%.3f #%d %-9s %s cached=%b queue=%.2fms solve=%.2fms \
                 bounds=[%d,%d]%s%s\n"
                e.at e.req_id e.outcome
                (if e.digest = "" then "-" else e.digest)
                e.cached e.queue_ms e.solve_ms e.lower e.upper
                (* only fleet shards stamp an identity; plain-daemon
                   lines keep their exact pre-fleet shape *)
                (if e.shard = "" then "" else " shard=" ^ e.shard)
                (if e.detail = "" then "" else " " ^ e.detail))
          entries;
        let discarded = recovery.Ovo_store.Rlog.rec_discarded_bytes in
        if discarded > 0 then
          Printf.eprintf "[ovo] %d trailing byte%s discarded (torn tail)\n%!"
            discarded (if discarded = 1 then "" else "s");
        `Ok ()
  in
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"An access log written by $(b,ovo serve --access-log).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"One JSON object per entry (NDJSON).")
  in
  Cmd.v
    (Cmd.info "access-log"
       ~doc:"Dump a structured access log written by the serving daemon")
    Term.(ret (const run $ path $ json))
