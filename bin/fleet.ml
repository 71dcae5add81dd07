(* The serving fleet: router, fleet up/down/status, and bench serve,
   which measures a daemon or router under load (doc/fleet.md). *)

open Cmdliner
module P = Ovo_serve.Protocol

let router_cmd =
  let run listen shards replicas health_interval connect_timeout backoff_ms
      idle_timeout prom =
    let shards =
      List.map
        (fun a -> { Ovo_router.Shard_map.name = P.addr_to_string a; addr = a })
        shards
    in
    try
      Ovo_router.Router.run
        { Ovo_router.Router.listen; shards; replicas; health_interval;
          connect_timeout; backoff_ms; idle_timeout; prom };
      `Ok ()
    with Invalid_argument m -> `Error (false, m)
  in
  let listen =
    Front.listen_arg ~default:"ovo-router.sock"
      ~doc:
        "Address to accept clients on (same forms as $(b,ovo serve \
         --listen)).  Default $(b,ovo-router.sock)."
  in
  let shards =
    Arg.(
      required
      & opt (some (list Front.addr_conv)) None
      & info [ "shards" ] ~docv:"ADDR,ADDR,..."
          ~doc:"Comma-separated backend $(b,ovo serve) addresses.  The \
                address string doubles as the shard's stable identity in \
                hashing and metrics, so keep it the same across restarts.")
  in
  let replicas =
    Arg.(value & opt int 2
         & info [ "replicas" ] ~docv:"N"
             ~doc:"Owners per key (primary + failovers).  With 2, any \
                   single shard can die without a $(b,shard_down).")
  in
  let health_interval =
    Arg.(value & opt float 2.0
         & info [ "health-interval" ] ~docv:"SECS"
             ~doc:"Seconds between health-probe sweeps (the data path \
                   also marks shards down/up on its own).")
  in
  let connect_timeout =
    Arg.(value & opt float 1.0
         & info [ "connect-timeout" ] ~docv:"SECS"
             ~doc:"Bound on each shard connection attempt.")
  in
  let backoff_ms =
    Arg.(value & opt float 50.
         & info [ "backoff-ms" ] ~docv:"MS"
             ~doc:"Failover backoff before trying the next replica \
                   (doubles per attempt, capped at 2 s).")
  in
  let idle_timeout =
    Arg.(value & opt (some float) None
         & info [ "idle-timeout" ] ~docv:"SECS"
             ~doc:"Shut down after this many seconds without a request.")
  in
  let prom =
    Front.prom_arg
      ~doc:
        "Router-level Prometheus exposition (same forms as $(b,ovo serve \
         --prom)): per-shard request counters, proxy latency histograms, \
         health gauges."
  in
  Cmd.v
    (Cmd.info "router"
       ~doc:
         "Route the NDJSON solve protocol across a fleet of $(b,ovo serve) \
          shards: consistent-hash placement on the canonical table digest, \
          health-checked failover, scatter/gather $(b,solve_many) \
          (doc/fleet.md)")
    Term.(
      ret
        (const run $ listen $ shards $ replicas $ health_interval
       $ connect_timeout $ backoff_ms $ idle_timeout $ prom))

(* ------------------------------------------------------------------ *)
(* local process supervision over ovo serve + ovo router               *)

type proc = { name : string; sock : string; pid : int }

let wait_ready ?(timeout = 15.) sock =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if Ovo_serve.Client.ping (P.Unix_sock sock) then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.1;
      go ()
    end
  in
  go ()

let terminate procs =
  List.iter
    (fun p -> try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ())
    procs

(* Start one [ovo serve] daemon per name under [dir] — and, given
   [router = replicas], an [ovo router] in front of them — each
   re-invoking this executable with output appended to DIR/NAME.log,
   and wait until every one answers a ping.  On a failure every process
   started is sent SIGTERM. *)
let spawn_fleet ~dir ~workers ?(access_log = false) ?router names =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let spawn name args =
    let sock = Filename.concat dir (name ^ ".sock") in
    let log =
      Unix.openfile
        (Filename.concat dir (name ^ ".log"))
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
        0o644
    in
    let argv = Sys.executable_name :: args sock in
    let pid =
      Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin
        log log
    in
    Unix.close log;
    { name; sock; pid }
  in
  let serve name sock =
    [ "serve"; "--listen"; sock; "--shard-id"; name; "--workers";
      string_of_int workers ]
    @
    if access_log then [ "--access-log"; Filename.concat dir (name ^ ".alog") ]
    else []
  in
  let shards = List.map (fun name -> spawn name (serve name)) names in
  match List.filter (fun p -> not (wait_ready p.sock)) shards with
  | _ :: _ as dead ->
      terminate shards;
      Error
        (Printf.sprintf "shard(s) %s never became ready (see logs in %s)"
           (String.concat ", " (List.map (fun p -> p.name) dead))
           dir)
  | [] -> (
      match router with
      | None -> Ok (shards, None)
      | Some replicas ->
          let r =
            spawn "router" (fun sock ->
                [ "router"; "--listen"; sock; "--shards";
                  String.concat "," (List.map (fun p -> p.sock) shards);
                  "--replicas"; string_of_int replicas ])
          in
          if wait_ready r.sock then Ok (shards, Some r)
          else begin
            terminate (r :: shards);
            Error
              (Printf.sprintf "router never became ready (see %s)"
                 (Filename.concat dir "router.log"))
          end)

let shard_names n = List.init n (Printf.sprintf "shard-%d")
let fleet_state_file dir = Filename.concat dir "fleet.json"

let fleet_read_state dir =
  let path = fleet_state_file dir in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no fleet state at %s (is the fleet up?)" path)
  else
    let module J = Ovo_obs.Json in
    match J.parse (Front.read_file path) with
    | Error m -> Error (Printf.sprintf "%s: %s" path m)
    | Ok j ->
        let str k o = Option.bind (J.member k o) J.to_string_opt in
        let int k o = Option.bind (J.member k o) J.to_int_opt in
        let shard_of sj =
          match (str "name" sj, str "addr" sj, int "pid" sj) with
          | Some name, Some addr, Some pid -> Some (name, addr, pid)
          | _ -> None
        in
        let shards =
          Option.value
            (Option.bind (J.member "shards" j) J.to_list_opt)
            ~default:[]
          |> List.filter_map shard_of
        in
        let router =
          Option.bind (J.member "router" j) (fun rj ->
              match (str "addr" rj, int "pid" rj) with
              | Some addr, Some pid -> Some (addr, pid)
              | _ -> None)
        in
        Ok (shards, router)

let fleet_write_state dir ~shards ~router =
  let module J = Ovo_obs.Json in
  let entry ?name p =
    J.Obj
      (Option.fold ~none:[] ~some:(fun n -> [ ("name", J.String n) ]) name
      @ [ ("addr", J.String ("unix:" ^ p.sock)); ("pid", J.Int p.pid) ])
  in
  let j =
    J.Obj
      (("shards", J.List (List.map (fun p -> entry ~name:p.name p) shards))
      :: Option.fold ~none:[] ~some:(fun r -> [ ("router", entry r) ]) router)
  in
  Front.write_file (fleet_state_file dir) (J.to_string j ^ "\n")

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true

let dir_arg ~doc =
  Arg.(value & opt string "ovo-fleet" & info [ "dir" ] ~docv:"DIR" ~doc)

let fleet_up_cmd =
  let run n dir workers access_log router replicas =
    let fail m = `Error (false, m) in
    if n < 1 then fail "need at least one shard"
    else if Sys.file_exists (fleet_state_file dir) then
      fail
        (Printf.sprintf
           "%s exists — a fleet may already be up; run `ovo fleet down \
            --dir %s` first"
           (fleet_state_file dir) dir)
    else
      let router = if router then Some replicas else None in
      match
        spawn_fleet ~dir ~workers ~access_log ?router (shard_names n)
      with
      | Error m -> fail m
      | Ok (shards, router) ->
          fleet_write_state dir ~shards ~router;
          List.iter
            (fun p -> Printf.printf "%-9s pid %-7d %s\n" p.name p.pid p.sock)
            (shards @ Option.to_list router);
          Printf.printf "state     %s\n" (fleet_state_file dir);
          `Ok ()
  in
  let n =
    Arg.(required & pos 0 (some int) None
         & info [] ~docv:"N" ~doc:"Number of shard daemons to start.")
  in
  let dir =
    dir_arg
      ~doc:
        "Fleet directory: sockets, per-process logs, and $(b,fleet.json) \
         state live here."
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N" ~doc:"Worker threads per shard.")
  in
  let access_log =
    Arg.(value & flag
         & info [ "access-log" ]
             ~doc:"Give each shard a structured access log in the fleet \
                   directory (entries carry the shard's identity).")
  in
  let router =
    Arg.(value & flag
         & info [ "router" ]
             ~doc:"Also start $(b,ovo router) on $(i,DIR)/router.sock in \
                   front of the shards.")
  in
  let replicas =
    Arg.(value & opt int 2
         & info [ "replicas" ] ~docv:"N"
             ~doc:"Router replicas per key (with $(b,--router)).")
  in
  Cmd.v
    (Cmd.info "up"
       ~doc:"Start $(i,N) local shard daemons (and optionally a router) \
             under $(i,DIR)")
    Term.(
      ret
        (const run $ n $ dir $ workers $ access_log $ router $ replicas))

let fleet_down_cmd =
  let run dir =
    match fleet_read_state dir with
    | Error m -> `Error (false, m)
    | Ok (shards, router) ->
        let procs =
          (match router with
          | Some (_, pid) -> [ ("router", pid) ]
          | None -> [])
          @ List.map (fun (name, _, pid) -> (name, pid)) shards
        in
        List.iter
          (fun (_, pid) ->
            try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
          procs;
        (* graceful drain window, then escalate *)
        let deadline = Unix.gettimeofday () +. 5. in
        let rec linger () =
          if List.exists (fun (_, pid) -> pid_alive pid) procs then
            if Unix.gettimeofday () > deadline then
              List.iter
                (fun (_, pid) ->
                  if pid_alive pid then
                    try Unix.kill pid Sys.sigkill
                    with Unix.Unix_error _ -> ())
                procs
            else begin
              Unix.sleepf 0.1;
              linger ()
            end
        in
        linger ();
        List.iter
          (fun (name, pid) ->
            Printf.printf "%-9s pid %-7d stopped\n" name pid)
          procs;
        Sys.remove (fleet_state_file dir);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "down"
       ~doc:"Stop every process recorded in $(i,DIR)/fleet.json \
             (SIGTERM, then SIGKILL after 5 s)")
    Term.(ret (const run $ dir_arg ~doc:"Fleet directory."))

let fleet_status_cmd =
  let run dir =
    match fleet_read_state dir with
    | Error m -> `Error (false, m)
    | Ok (shards, router) ->
        let row name addr pid =
          let state =
            if not (pid_alive pid) then "dead"
            else
              match P.addr_of_string addr with
              | Ok a -> if Ovo_serve.Client.ping a then "up" else "unresponsive"
              | Error _ -> "bad-addr"
          in
          Printf.printf "%-9s pid %-7d %-12s %s\n" name pid state addr
        in
        Option.iter (fun (addr, pid) -> row "router" addr pid) router;
        List.iter (fun (name, addr, pid) -> row name addr pid) shards;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Ping every process in $(i,DIR)/fleet.json")
    Term.(ret (const run $ dir_arg ~doc:"Fleet directory."))

let fleet_cmd =
  Cmd.group
    (Cmd.info "fleet"
       ~doc:
         "Supervise a local serving fleet: $(b,up) starts $(i,N) shard \
          daemons (plus an optional router), $(b,down) stops them, \
          $(b,status) pings them (doc/fleet.md)")
    [ fleet_up_cmd; fleet_down_cmd; fleet_status_cmd ]

(* ------------------------------------------------------------------ *)
(* bench serve: measure an endpoint (daemon or router) under load      *)

(* Per-request outcome, filled at the request's workload index by
   whichever client thread carried it (indices are disjoint, so the
   array needs no lock). *)
type load_outcome =
  | L_ok of { digest : string; mincost : int; size : int; cached : bool }
  | L_cancelled
  | L_shard_down
  | L_error

type load_run = {
  duration_s : float;
  outcomes : load_outcome option array;
  lat_ms : float array;
}

let bench_workload ~seed ~tables ~arity ~repeat =
  let st = Random.State.make [| seed; arity |] in
  let tabs =
    Array.init tables (fun _ ->
        String.init (1 lsl arity) (fun _ ->
            if Random.State.bool st then '1' else '0'))
  in
  let work =
    Array.init (tables * repeat) (fun i -> tabs.(i mod tables))
  in
  (* deterministic shuffle so repeats interleave instead of clumping *)
  let st = Random.State.make [| seed; 0x5eed |] in
  for i = Array.length work - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = work.(i) in
    work.(i) <- work.(j);
    work.(j) <- tmp
  done;
  work

(* Drive [work] through [addr] with [clients] threads.  [batch] > 1
   sends every other chunk as one [solve_many] (the rest as single
   solves), so the endpoint sees mixed traffic. *)
let bench_run_load ~addr ~clients ~batch work =
  let module C = Ovo_serve.Client in
  let n = Array.length work in
  let outcomes = Array.make n None in
  let lat_ms = Array.make n 0. in
  let next = Atomic.make 0 in
  let chunk = max 1 batch in
  let solve table =
    P.
      { table; kind = Ovo_core.Compact.Bdd; engine = Ovo_core.Engine.Seq;
        deadline_ms = None }
  in
  let failed message =
    P.Error { code = P.Internal; message; retry_after_ms = None }
  in
  let note idx body ms =
    lat_ms.(idx) <- ms;
    outcomes.(idx) <-
      Some
        (match body with
        | P.Ok_solve r ->
            L_ok
              { digest = r.P.digest; mincost = r.P.mincost; size = r.P.size;
                cached = r.P.cached }
        | P.Cancelled _ -> L_cancelled
        | P.Error { code = P.Shard_down; _ } -> L_shard_down
        | _ -> L_error)
  in
  let client_loop () =
    let c = C.connect_retry ~timeout:2.0 ~retries:20 addr in
    Fun.protect
      ~finally:(fun () -> C.close c)
      (fun () ->
        let rec go () =
          let lo = Atomic.fetch_and_add next chunk in
          if lo < n then begin
            let hi = min n (lo + chunk) in
            let started = Unix.gettimeofday () in
            let ms () = (Unix.gettimeofday () -. started) *. 1000. in
            (if chunk > 1 && lo / chunk mod 2 = 0 then begin
               (* one solve_many for the whole chunk *)
               let items =
                 List.init (hi - lo) (fun k -> solve work.(lo + k))
               in
               match C.send c { P.id = lo; op = P.Solve_many items } with
               | exception Sys_error _ ->
                   for k = lo to hi - 1 do
                     note k (failed "send failed") (ms ())
                   done
               | () ->
                   for _ = lo to hi - 1 do
                     match C.recv c with
                     | Ok { P.item = Some j; body; _ } when lo + j < hi ->
                         note (lo + j) body (ms ())
                     | Ok _ | Error (`Msg _) -> ()
                   done
             end
             else
               for k = lo to hi - 1 do
                 match C.roundtrip c { P.id = k; op = P.Solve (solve work.(k)) }
                 with
                 | Ok { P.body; _ } -> note k body (ms ())
                 | Error (`Msg _) -> note k (failed "transport") (ms ())
               done);
            go ()
          end
        in
        go ())
  in
  let started = Unix.gettimeofday () in
  let threads =
    List.init (max 1 clients) (fun _ -> Thread.create client_loop ())
  in
  List.iter Thread.join threads;
  { duration_s = Unix.gettimeofday () -. started; outcomes; lat_ms }

let bench_percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (float_of_int (n - 1) *. q +. 0.5)))

(* Wrong answers: two replies for the same digest must agree on
   (mincost, size) — the digest is the canonical key, so disagreement
   means a shard returned a non-optimal or corrupted result. *)
let bench_aggregate (r : load_run) =
  let ok = ref 0 and cached = ref 0 and cancelled = ref 0 in
  let shard_down = ref 0 and errors = ref 0 and wrong = ref 0 in
  let by_digest = Hashtbl.create 64 in
  Array.iter
    (fun o ->
      match o with
      | None -> incr errors  (* never answered: a lost reply is an error *)
      | Some (L_ok { digest; mincost; size; cached = c }) -> (
          incr ok;
          if c then incr cached;
          match Hashtbl.find_opt by_digest digest with
          | None -> Hashtbl.add by_digest digest (mincost, size)
          | Some (m, s) -> if (m, s) <> (mincost, size) then incr wrong)
      | Some L_cancelled -> incr cancelled
      | Some L_shard_down -> incr shard_down
      | Some L_error -> incr errors)
    r.outcomes;
  let sorted = Array.copy r.lat_ms in
  Array.sort compare sorted;
  let module J = Ovo_obs.Json in
  ( !wrong,
    J.Obj
      [ ("requests", J.Int (Array.length r.outcomes));
        ("ok", J.Int !ok);
        ("cached", J.Int !cached);
        ("cancelled", J.Int !cancelled);
        ("shard_down", J.Int !shard_down);
        ("errors", J.Int !errors);
        ("wrong", J.Int !wrong);
        ("duration_s", J.Float r.duration_s);
        ( "rps",
          J.Float
            (if r.duration_s > 0. then
               float_of_int (Array.length r.outcomes) /. r.duration_s
             else 0.) );
        ("p50_ms", J.Float (bench_percentile sorted 0.5));
        ("p99_ms", J.Float (bench_percentile sorted 0.99)) ]
  )

(* Answers must be bit-identical between two runs of the same workload
   (single daemon vs fleet): compare per-index. *)
let bench_cross_check a b =
  let wrong = ref 0 in
  Array.iteri
    (fun i oa ->
      match (oa, b.outcomes.(i)) with
      | Some (L_ok ra), Some (L_ok rb) ->
          if
            (ra.digest, ra.mincost, ra.size)
            <> (rb.digest, rb.mincost, rb.size)
          then incr wrong
      | _ -> ())
    a.outcomes;
  !wrong

(* Run [work] against a freshly spawned fleet (see {!spawn_fleet}), then
   stop its processes and reap them. *)
let bench_spawned ~dir ~workers ?router names ~clients ~batch work =
  match spawn_fleet ~dir ~workers ?router names with
  | Error _ as e -> e
  | Ok (shards, router) ->
      let target = Option.value router ~default:(List.hd shards) in
      let r = bench_run_load ~addr:(P.Unix_sock target.sock) ~clients ~batch work in
      let procs = Option.to_list router @ shards in
      terminate procs;
      List.iter
        (fun p -> try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ())
        procs;
      Ok r

let bench_serve_cmd =
  let module J = Ovo_obs.Json in
  let run connect spawn clients tables arity repeat batch seed workers
      replicas out =
    let fail m = `Error (false, m) in
    let work = bench_workload ~seed ~tables ~arity ~repeat in
    let params =
      [ ("clients", J.Int clients); ("tables", J.Int tables);
        ("arity", J.Int arity); ("repeat", J.Int repeat);
        ("batch", J.Int batch) ]
    in
    let emit fields =
      let line = J.to_string (J.Obj fields) in
      Option.iter
        (fun path ->
          Front.write_file path (line ^ "\n");
          Printf.eprintf "[ovo-bench] wrote %s\n%!" path)
        out;
      print_endline line;
      `Ok ()
    in
    match spawn with
    | None -> (
        (* measure an endpoint somebody else runs (daemon or router) *)
        match bench_run_load ~addr:connect ~clients ~batch work with
        | exception Unix.Unix_error (e, _, _) ->
            fail
              (Printf.sprintf "cannot reach %s: %s" (P.addr_to_string connect)
                 (Unix.error_message e))
        | r ->
            emit
              ([ ("benchmark", J.String "serve_load");
                 ("addr", J.String (P.addr_to_string connect)) ]
              @ params
              @ [ ("load", snd (bench_aggregate r)) ]))
    | Some n when n < 1 -> fail "--spawn needs at least 1 shard"
    | Some n -> (
        (* a single-daemon baseline, then an n-shard fleet behind a
           router, on the identical workload *)
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "ovo-bench-%d" (Unix.getpid ()))
        in
        (* the daemons' logs and sockets go with the reaped daemons *)
        Fun.protect ~finally:(fun () -> Front.remove_tree dir) @@ fun () ->
        let run_on ?router names =
          bench_spawned ~dir ~workers ?router names ~clients ~batch work
        in
        match run_on [ "single" ] with
        | Error m -> fail m
        | Ok single -> (
            match run_on ~router:replicas (shard_names n) with
            | Error m -> fail m
            | Ok fleet ->
                let w1, single_j = bench_aggregate single in
                let w2, fleet_j = bench_aggregate fleet in
                let wrong = w1 + w2 + bench_cross_check single fleet in
                let rps j =
                  Option.value ~default:0.
                    (Option.bind (J.find_path [ "rps" ] j) J.to_float_opt)
                in
                let speedup =
                  if rps single_j > 0. then rps fleet_j /. rps single_j
                  else 0.
                in
                emit
                  ([ ("benchmark", J.String "fleet"); ("shards", J.Int n);
                     ("replicas", J.Int replicas) ]
                  @ params
                  @ [ ("workers_per_shard", J.Int workers);
                      ("single", single_j); ("fleet", fleet_j);
                      ("speedup", J.Float speedup); ("wrong", J.Int wrong) ])))
  in
  let connect =
    Front.connect_arg
      ~doc:
        "Endpoint to load (a daemon or a router); ignored with \
         $(b,--spawn)."
      ()
  in
  let spawn =
    Arg.(value & opt (some int) None
         & info [ "spawn" ] ~docv:"N"
             ~doc:"Self-contained comparison: spawn a 1-daemon baseline, \
                   then $(i,N) shard daemons behind a router, run the same \
                   workload against both and report the speedup.")
  in
  let clients =
    Arg.(value & opt int 4
         & info [ "clients" ] ~docv:"K"
             ~doc:"Concurrent client connections driving load.")
  in
  let tables =
    Arg.(value & opt int 40
         & info [ "tables" ] ~docv:"M" ~doc:"Distinct random tables.")
  in
  let arity =
    Arg.(value & opt int 10
         & info [ "arity" ] ~docv:"N" ~doc:"Arity of the random tables.")
  in
  let repeat =
    Arg.(value & opt int 2
         & info [ "repeat" ] ~docv:"R"
             ~doc:"Times each table is requested (repeats exercise the \
                   result cache).")
  in
  let batch =
    Arg.(value & opt int 8
         & info [ "batch" ] ~docv:"B"
             ~doc:"Chunk size: every other chunk goes as one \
                   $(b,solve_many), the rest as single solves (mixed \
                   traffic).  0 or 1 sends singles only.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"S" ~doc:"Workload PRNG seed.")
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N"
             ~doc:"Workers per spawned daemon (with $(b,--spawn)).")
  in
  let replicas =
    Arg.(value & opt int 2
         & info [ "replicas" ] ~docv:"N"
             ~doc:"Router replicas per key (with $(b,--spawn)).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Also write the JSON report to $(i,FILE) (the CI gate \
                   reads $(b,BENCH_fleet.json)).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Drive concurrent solve / $(b,solve_many) load at a daemon or \
          router and report throughput and latency quantiles; with \
          $(b,--spawn) $(i,N), benchmark an $(i,N)-shard fleet against a \
          single-daemon baseline on the identical workload")
    Term.(
      ret
        (const run $ connect $ spawn $ clients $ tables $ arity $ repeat
       $ batch $ seed $ workers $ replicas $ out))

let bench_cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:"Load-driving benchmark clients (doc/benchmarks.md)")
    [ bench_serve_cmd ]
