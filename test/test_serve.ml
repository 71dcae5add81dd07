(* The ordering service: LRU and bounded-queue semantics, cooperative
   cancellation through the DP, protocol codecs, the canonical result
   cache (including permutation-equivalent hits), and an in-process
   end-to-end run over a temp Unix socket.  The load-bearing property is
   qcheck'd: a cache hit returns exactly what a fresh solve would. *)

module T = Ovo_boolfun.Truthtable
module Cancel = Ovo_core.Cancel
module Fs = Ovo_core.Fs
module P = Ovo_serve.Protocol
module Lru = Ovo_serve.Lru
module Bqueue = Ovo_serve.Bqueue
module Cache = Ovo_serve.Cache
module Solver = Ovo_serve.Solver
module Server = Ovo_serve.Server
module Client = Ovo_serve.Client

let lru_tests =
  [
    Helpers.case "evicts least-recently-used at capacity" (fun () ->
        let l = Lru.create ~cap:2 in
        Lru.add l "a" 1;
        Lru.add l "b" 2;
        Lru.add l "c" 3;
        (* a was LRU *)
        Helpers.check_bool "a gone" false (Lru.mem l "a");
        Helpers.check_bool "b kept" true (Lru.mem l "b");
        Helpers.check_bool "c kept" true (Lru.mem l "c");
        Helpers.check_int "evictions" 1 (Lru.evictions l));
    Helpers.case "find refreshes recency" (fun () ->
        let l = Lru.create ~cap:2 in
        Lru.add l "a" 1;
        Lru.add l "b" 2;
        Helpers.check_bool "hit" true (Lru.find l "a" = Some 1);
        Lru.add l "c" 3;
        (* b, not a, was LRU after the find *)
        Helpers.check_bool "a kept" true (Lru.mem l "a");
        Helpers.check_bool "b gone" false (Lru.mem l "b"));
    Helpers.case "add on an existing key replaces in place" (fun () ->
        let l = Lru.create ~cap:2 in
        Lru.add l "a" 1;
        Lru.add l "b" 2;
        Lru.add l "a" 10;
        Helpers.check_int "length" 2 (Lru.length l);
        Helpers.check_bool "updated" true (Lru.find l "a" = Some 10);
        Helpers.check_int "no eviction" 0 (Lru.evictions l));
    Helpers.case "mem does not touch recency" (fun () ->
        let l = Lru.create ~cap:2 in
        Lru.add l "a" 1;
        Lru.add l "b" 2;
        ignore (Lru.mem l "a");
        Lru.add l "c" 3;
        Helpers.check_bool "a still evicted" false (Lru.mem l "a"));
  ]

let bqueue_tests =
  [
    Helpers.case "try_push reports Full at capacity" (fun () ->
        let q = Bqueue.create ~cap:2 in
        Helpers.check_bool "1st" true (Bqueue.try_push q 1 = `Pushed);
        Helpers.check_bool "2nd" true (Bqueue.try_push q 2 = `Pushed);
        Helpers.check_bool "3rd rejected" true (Bqueue.try_push q 3 = `Full);
        Helpers.check_int "depth" 2 (Bqueue.length q));
    Helpers.case "close drains queued items then yields None" (fun () ->
        let q = Bqueue.create ~cap:4 in
        ignore (Bqueue.try_push q 1);
        ignore (Bqueue.try_push q 2);
        Bqueue.close q;
        Helpers.check_bool "push after close" true
          (match Bqueue.try_push q 3 with
          | exception Bqueue.Closed -> true
          | _ -> false);
        Helpers.check_bool "drain 1" true (Bqueue.pop q = Some 1);
        Helpers.check_bool "drain 2" true (Bqueue.pop q = Some 2);
        Helpers.check_bool "then None" true (Bqueue.pop q = None));
    Helpers.case "pop blocks until a producer arrives" (fun () ->
        let q = Bqueue.create ~cap:1 in
        let got = ref None in
        let consumer = Thread.create (fun () -> got := Bqueue.pop q) () in
        Thread.delay 0.02;
        ignore (Bqueue.try_push q 42);
        Thread.join consumer;
        Helpers.check_bool "received" true (!got = Some 42));
    Helpers.case "close wakes a parked consumer" (fun () ->
        let q = Bqueue.create ~cap:1 in
        let got = ref (Some 0) in
        let consumer = Thread.create (fun () -> got := Bqueue.pop q) () in
        Thread.delay 0.02;
        Bqueue.close q;
        Thread.join consumer;
        Helpers.check_bool "None on close" true (!got = None));
  ]

let cancel_tests =
  [
    Helpers.case "explicit cancel fires the token" (fun () ->
        let c = Cancel.make () in
        Helpers.check_bool "fresh" false (Cancel.is_cancelled c);
        Cancel.cancel c;
        Helpers.check_bool "fired" true (Cancel.is_cancelled c));
    Helpers.case "deadline fires on the injected clock" (fun () ->
        let now = ref 0. in
        let c = Cancel.with_deadline ~clock:(fun () -> !now) 5. in
        Helpers.check_bool "before" false (Cancel.is_cancelled c);
        now := 5.;
        Helpers.check_bool "at deadline" true (Cancel.is_cancelled c));
    Helpers.case "a fired token aborts Fs.run as Error `Cancelled" (fun () ->
        let c = Cancel.make () in
        Cancel.cancel c;
        let tt = T.of_string "01101001" in
        Helpers.check_bool "cancelled" true
          (Cancel.protect c (fun () -> Fs.run ~cancel:c tt) = Error `Cancelled));
    Helpers.case "an unfired token leaves Fs.run untouched" (fun () ->
        let c = Cancel.make () in
        let tt = T.of_string "01101001" in
        match Cancel.protect c (fun () -> Fs.run ~cancel:c tt) with
        | Error `Cancelled -> Alcotest.fail "spurious cancellation"
        | Ok r ->
            Helpers.check_int "same mincost" (Fs.run tt).Fs.mincost r.Fs.mincost);
  ]

let roundtrip_request req =
  match P.request_of_line (P.request_to_line req) with
  | Ok r -> r
  | Error (`Msg m) -> Alcotest.fail m

let roundtrip_reply rep =
  match P.reply_of_line (P.reply_to_line rep) with
  | Ok r -> r
  | Error (`Msg m) -> Alcotest.fail m

let protocol_tests =
  [
    Helpers.case "solve request round-trips" (fun () ->
        let req =
          { P.id = 7;
            op =
              P.Solve
                { P.table = "01101001"; kind = Ovo_core.Compact.Zdd;
                  engine = Ovo_core.Engine.Par { domains = 3 };
                  deadline_ms = Some 250. } }
        in
        Helpers.check_bool "equal" true (roundtrip_request req = req));
    Helpers.case "control requests round-trip" (fun () ->
        List.iter
          (fun op ->
            let req = { P.id = 1; op } in
            Helpers.check_bool "equal" true (roundtrip_request req = req))
          [ P.Stats; P.Ping; P.Shutdown ]);
    Helpers.case "replies round-trip" (fun () ->
        List.iter
          (fun body ->
            let rep = P.reply 9 body in
            Helpers.check_bool "equal" true (roundtrip_reply rep = rep))
          [ P.Ok_solve
              { P.digest = "3:0123456789abcdef"; mincost = 3; size = 5;
                order = [| 2; 0; 1 |]; widths = [| 1; 2; 1 |]; cached = true;
                queue_ms = 0.5; solve_ms = 1.25 };
            P.Pong;
            P.Bye;
            P.Cancelled "deadline exceeded";
            P.Error
              { code = P.Queue_full; message = "full";
                retry_after_ms = Some 12.5 };
            P.Error
              { code = P.Bad_request; message = "nope"; retry_after_ms = None };
          ]);
    Helpers.case "malformed lines decode to errors" (fun () ->
        List.iter
          (fun line ->
            Helpers.check_bool line true
              (match P.request_of_line line with Error (`Msg _) -> true | Ok _ -> false))
          [ "not json"; "[1,2]"; "{\"id\":1}"; "{\"id\":1,\"op\":\"nope\"}";
            "{\"op\":\"ping\"}" ]);
    Helpers.case "addresses parse both ways" (fun () ->
        let ok s a =
          Helpers.check_bool s true (P.addr_of_string s = Ok a)
        in
        ok "unix:/tmp/x.sock" (P.Unix_sock "/tmp/x.sock");
        ok "/tmp/x.sock" (P.Unix_sock "/tmp/x.sock");
        ok "ovo.sock" (P.Unix_sock "ovo.sock");
        ok "127.0.0.1:7421" (P.Tcp ("127.0.0.1", 7421));
        ok "tcp:localhost:80" (P.Tcp ("localhost", 80));
        Helpers.check_bool "bad port" true
          (match P.addr_of_string "host:99999999" with
          | Error (`Msg _) -> true
          | Ok _ -> false));
  ]

let solve_fresh ?(kind = Ovo_core.Compact.Bdd) cache tt =
  match
    Solver.solve ~cache ~cancel:Cancel.never ~engine:Ovo_core.Engine.Seq ~kind
      tt
  with
  | Ok s -> s
  | Error (`Cancelled _) -> Alcotest.fail "unexpected cancellation"

let cache_tests =
  [
    Helpers.case "repeat request is a hit with identical payload" (fun () ->
        let cache = Cache.create ~cap:8 () in
        let tt = T.of_string "0110100110010110" in
        let a = solve_fresh cache tt in
        let b = solve_fresh cache tt in
        Helpers.check_bool "first cold" false a.Solver.cached;
        Helpers.check_bool "second warm" true b.Solver.cached;
        Helpers.check_bool "same payload" true
          ({ a with Solver.cached = false } = { b with Solver.cached = false });
        Helpers.check_int "one hit" 1 (Cache.hits cache));
    Helpers.case "permutation-equivalent request hits the same entry"
      (fun () ->
        let cache = Cache.create ~cap:8 () in
        let tt = T.of_string "0111011000000001" in
        let perm = [| 2; 0; 3; 1 |] in
        let a = solve_fresh cache tt in
        let b = solve_fresh cache (T.permute_vars tt perm) in
        Helpers.check_bool "second warm" true b.Solver.cached;
        Helpers.check_bool "same digest" true
          (String.equal a.Solver.digest b.Solver.digest);
        Helpers.check_int "same mincost" a.Solver.mincost b.Solver.mincost;
        Helpers.check_int "one DP run" 1 (Cache.misses cache));
    Helpers.case "bdd and zdd results do not alias" (fun () ->
        let cache = Cache.create ~cap:8 () in
        let tt = T.of_string "01101001" in
        let _ = solve_fresh cache tt in
        let z = solve_fresh ~kind:Ovo_core.Compact.Zdd cache tt in
        Helpers.check_bool "zdd is its own miss" false z.Solver.cached);
    Helpers.case "digest collision is counted and degrades to a miss"
      (fun () ->
        let cache = Cache.create ~cap:8 () in
        let tt = T.of_string "0110100110010110" in
        let other = T.of_string "0000000000000001" in
        let s = solve_fresh cache tt in
        (* probe the stored digest with a different canonical table: the
           equality check must reject it and count a collision *)
        (match
           Cache.find cache ~digest:s.Solver.digest
             ~kind:Ovo_core.Compact.Bdd ~canon:other
         with
        | None -> ()
        | Some _ -> Alcotest.fail "collision served a wrong answer");
        Helpers.check_int "collision counted" 1 (Cache.collisions cache);
        (match Ovo_obs.Json.member "collisions" (Cache.to_json cache) with
        | Some (Ovo_obs.Json.Int 1) -> ()
        | _ -> Alcotest.fail "collisions missing from stats json"));
    Helpers.case "persist hook fires on add but not on warm" (fun () ->
        let persisted = ref 0 in
        let cache =
          Cache.create
            ~persist:(fun ~digest:_ ~kind:_ _ -> incr persisted)
            ~cap:8 ()
        in
        let tt = T.of_string "01101001" in
        let s = solve_fresh cache tt in
        Helpers.check_int "solve persisted" 1 !persisted;
        Cache.warm cache ~digest:"other" ~kind:Ovo_core.Compact.Bdd
          { Cache.canon = tt; mincost = s.Solver.mincost;
            size = s.Solver.size; canon_order = s.Solver.order;
            widths = s.Solver.widths };
        Helpers.check_int "warm does not persist" 1 !persisted);
    Helpers.case "parse_table rejects junk and over-arity input" (fun () ->
        let bad s =
          match Solver.parse_table ~max_arity:16 s with
          | Error (`Bad _) -> true
          | _ -> false
        in
        Helpers.check_bool "not a power of two" true (bad "011");
        Helpers.check_bool "bad character" true (bad "01x0");
        Helpers.check_bool "empty" true (bad "");
        Helpers.check_bool "too large" true
          (match
             Solver.parse_table ~max_arity:2 "0110100110010110"
           with
          | Error (`Too_large _) -> true
          | _ -> false);
        (* characters are checked before the arity *)
        Helpers.check_bool "bad character beats too large" true
          (match
             Solver.parse_table ~max_arity:9
               (String.init 1024 (fun i -> if i = 700 then 'x' else '1'))
           with
          | Error (`Bad m) -> m = "table must contain only '0' and '1'"
          | _ -> false);
        Helpers.check_bool "good" true
          (match Solver.parse_table ~max_arity:16 "0110" with
          | Ok _ -> true
          | _ -> false));
    Helpers.case "parse_table refuses an over-budget arity at admission"
      (fun () ->
        let table n =
          String.init (1 lsl n) (fun i -> if i land 5 = 1 then '1' else '0')
        in
        (* arity 10 needs 57 600 B of layer buffers plus a 9 507 B table *)
        (match
           Solver.parse_table ~mem_budget:60000 ~max_arity:16 (table 10)
         with
        | Error (`Too_large m) ->
            Helpers.check_bool m true (Helpers.contains m "67107 B")
        | _ -> Alcotest.fail "arity 10 admitted under 60000 B");
        (* arity 9 needs 24 837 B *)
        Helpers.check_bool "arity 9 admitted" true
          (match
             Solver.parse_table ~mem_budget:60000 ~max_arity:16 (table 9)
           with
          | Ok tt -> Ovo_boolfun.Truthtable.arity tt = 9
          | Error _ -> false));
  ]

let stats_tests =
  [
    Helpers.case "avg_ms_opt distinguishes no-data from fast" (fun () ->
        let s = Ovo_serve.Stats.create () in
        (* no solve observed yet: the server must fall back to its fixed
           retry_after default instead of extrapolating from 0 *)
        Helpers.check_bool "no data" true
          (Ovo_serve.Stats.avg_ms_opt s ~endpoint:"solve" = None);
        Helpers.check_bool "avg_ms still 0." true
          (Ovo_serve.Stats.avg_ms s ~endpoint:"solve" = 0.);
        Ovo_serve.Stats.record s ~endpoint:"solve" ~ms:4.;
        Helpers.check_bool "observed" true
          (Ovo_serve.Stats.avg_ms_opt s ~endpoint:"solve" = Some 4.));
    Helpers.case "stats json: store is null without persistence" (fun () ->
        let s = Ovo_serve.Stats.create () in
        let j =
          Ovo_serve.Stats.to_json s ~queue_depth:0 ~queue_cap:1 ~workers:1
            ~cache:Ovo_obs.Json.Null
        in
        Helpers.check_bool "null store" true
          (Ovo_obs.Json.member "store" j = Some Ovo_obs.Json.Null));
  ]

(* The solved order must actually achieve the reported mincost on the
   *request's* table — this is what "mapping the canonical result back
   through the permutation" has to preserve. *)
let order_achieves_mincost tt (s : Solver.solved) =
  let pi = Ovo_core.Eval_order.read_first s.Solver.order in
  Ovo_core.Eval_order.mincost tt pi = s.Solver.mincost

(* The `Scored orderer must answer in heuristic time with an achievable
   (possibly sub-optimal) ordering, and its replies must never leak into
   the exact result cache. *)
let scored_tests =
  [
    Helpers.case "scored misses never pollute the exact cache" (fun () ->
        let cache = Cache.create ~cap:8 () in
        let tt = T.of_string (String.concat "" [ "0110100110010110";
                                                 "1001011001101001" ]) in
        let solve_scored () =
          match
            Solver.solve ~orderer:`Scored ~cache ~cancel:Cancel.never
              ~engine:Ovo_core.Engine.Seq ~kind:Ovo_core.Compact.Bdd tt
          with
          | Ok s -> s
          | Error (`Cancelled _) -> Alcotest.fail "unexpected cancellation"
        in
        let scored = solve_scored () in
        Helpers.check_bool "scored is not cached" false scored.Solver.cached;
        Helpers.check_bool "scored cost is achievable" true
          (order_achieves_mincost tt scored);
        (* the scored reply must not have entered the cache: the next
           exact solve is still a miss, and is at least as good *)
        let exact = solve_fresh cache tt in
        Helpers.check_bool "exact is still a miss" false exact.Solver.cached;
        Helpers.check_bool "exact <= scored" true
          (exact.Solver.mincost <= scored.Solver.mincost);
        (* once the exact result is cached, the scored path serves it *)
        let hit = solve_scored () in
        Helpers.check_bool "cache hit answers exactly" true hit.Solver.cached;
        Helpers.check_int "hit is the optimum" exact.Solver.mincost
          hit.Solver.mincost);
  ]

let props =
  [
    QCheck.Test.make ~name:"cache hit result == fresh solve result"
      ~count:150
      (QCheck.pair (Helpers.arb_truthtable ~lo:1 ~hi:5 ()) QCheck.small_int)
      (fun (tt, seed) ->
        let perm = Helpers.perm_of_seed seed (T.arity tt) in
        let ptt = T.permute_vars tt perm in
        (* fresh solves in an empty cache *)
        let fresh_tt = solve_fresh (Cache.create ~cap:4 ()) tt in
        let fresh_ptt = solve_fresh (Cache.create ~cap:4 ()) ptt in
        (* same requests against a shared, warm cache *)
        let cache = Cache.create ~cap:4 () in
        let _warmup = solve_fresh cache tt in
        let hit_tt = solve_fresh cache tt in
        let hit_ptt = solve_fresh cache ptt in
        hit_tt.Solver.cached
        && { hit_tt with Solver.cached = false } = fresh_tt
        && { hit_ptt with Solver.cached = false } = fresh_ptt
        && fresh_tt.Solver.mincost = fresh_ptt.Solver.mincost
        && order_achieves_mincost tt hit_tt
        && order_achieves_mincost ptt hit_ptt);
    QCheck.Test.make ~name:"solver agrees with Fs.run on the raw table"
      ~count:100
      (Helpers.arb_truthtable ~lo:1 ~hi:5 ())
      (fun tt ->
        let s = solve_fresh (Cache.create ~cap:4 ()) tt in
        let r = Fs.run tt in
        s.Solver.mincost = r.Fs.mincost && s.Solver.size = r.Fs.size);
  ]

(* --- in-process end-to-end over a temp Unix socket -------------------- *)

let temp_sock () =
  let path = Filename.temp_file "ovo-serve-test" ".sock" in
  Sys.remove path;
  path

let expect_ok = function
  | Ok (r : P.reply) -> r.P.body
  | Error (`Msg m) -> Alcotest.fail m

(* like {!expect_ok} but keeps the whole reply (item tag, echoed id) *)
let expect_ok' = function
  | Ok (r : P.reply) -> r
  | Error (`Msg m) -> Alcotest.fail m

let e2e_tests =
  [
    Helpers.case "daemon: solve, cache hit, cancel, stats, shutdown"
      (fun () ->
        let sock = temp_sock () in
        let cfg =
          { (Server.default_config ~listen:(P.Unix_sock sock)) with
            Server.workers = 2; queue_cap = 4; cache_cap = 16 }
        in
        let server = Server.start cfg in
        let waiter = Thread.create (fun () -> Server.wait server) () in
        Fun.protect
          ~finally:(fun () ->
            Server.shutdown server;
            Thread.join waiter)
          (fun () ->
            Client.with_conn (P.Unix_sock sock) @@ fun c ->
            let solve ?deadline_ms table =
              expect_ok
                (Client.roundtrip c
                   { P.id = 1;
                     op =
                       P.Solve
                         { P.table; kind = Ovo_core.Compact.Bdd;
                           engine = Ovo_core.Engine.Seq; deadline_ms } })
            in
            Helpers.check_bool "ping" true
              (expect_ok (Client.roundtrip c { P.id = 0; op = P.Ping })
              = P.Pong);
            (let a = solve "0110100110010110" in
             let b = solve "0110100110010110" in
             match (a, b) with
             | P.Ok_solve a, P.Ok_solve b ->
                 Helpers.check_bool "cold" false a.P.cached;
                 Helpers.check_bool "warm" true b.P.cached;
                 Helpers.check_bool "same answer" true
                   (a.P.mincost = b.P.mincost && a.P.order = b.P.order
                  && a.P.widths = b.P.widths)
             | _ -> Alcotest.fail "expected two solve replies");
            (match solve ~deadline_ms:0. "0110100110010110" with
            | P.Cancelled _ -> ()
            | _ -> Alcotest.fail "expected cancellation");
            (match solve "011" with
            | P.Error { code = P.Bad_request; _ } -> ()
            | _ -> Alcotest.fail "expected bad_request");
            (match
               expect_ok (Client.roundtrip c { P.id = 2; op = P.Stats })
             with
            | P.Ok_stats s ->
                let open Ovo_obs.Json in
                let hits =
                  Option.bind (member "cache" s) (member "hits")
                  |> Fun.flip Option.bind to_int_opt
                in
                Helpers.check_bool "hits counted" true (hits = Some 1)
            | _ -> Alcotest.fail "expected stats");
            Helpers.check_bool "bye" true
              (expect_ok (Client.roundtrip c { P.id = 3; op = P.Shutdown })
              = P.Bye));
        (* after graceful shutdown the socket file is gone *)
        Helpers.check_bool "socket unlinked" false (Sys.file_exists sock));
    Helpers.case "daemon: --mem-budget refuses exact solves at admission only"
      (fun () ->
        (* arity 10 needs 67 107 B; a scored reply runs no DP *)
        let table =
          String.init 1024 (fun i -> if i mod 5 = 1 then '1' else '0')
        in
        List.iter
          (fun (orderer, refused) ->
            let sock = temp_sock () in
            let cfg =
              { (Server.default_config ~listen:(P.Unix_sock sock)) with
                Server.mem_budget = Some 60000; orderer }
            in
            let server = Server.start cfg in
            let waiter = Thread.create (fun () -> Server.wait server) () in
            Fun.protect
              ~finally:(fun () ->
                Server.shutdown server;
                Thread.join waiter)
              (fun () ->
                Client.with_conn (P.Unix_sock sock) @@ fun c ->
                match
                  expect_ok
                    (Client.roundtrip c
                       { P.id = 1;
                         op =
                           P.Solve
                             { P.table; kind = Ovo_core.Compact.Bdd;
                               engine = Ovo_core.Engine.Seq;
                               deadline_ms = None } })
                with
                | P.Error { code = P.Too_large; message; _ } when refused ->
                    Helpers.check_bool message true
                      (Helpers.contains message "67107 B")
                | P.Ok_solve _ when not refused -> ()
                | _ -> Alcotest.fail "unexpected reply"))
          [ (`Exact, true); (`Scored, false) ]);
    Helpers.case "daemon: solve_many streams tagged replies in item order"
      (fun () ->
        let sock = temp_sock () in
        let cfg =
          { (Server.default_config ~listen:(P.Unix_sock sock)) with
            Server.workers = 2; queue_cap = 16; cache_cap = 16 }
        in
        let server = Server.start cfg in
        let waiter = Thread.create (fun () -> Server.wait server) () in
        Fun.protect
          ~finally:(fun () ->
            Server.shutdown server;
            Thread.join waiter)
          (fun () ->
            Client.with_conn (P.Unix_sock sock) @@ fun c ->
            let item ?deadline_ms table =
              { P.table; kind = Ovo_core.Compact.Bdd;
                engine = Ovo_core.Engine.Seq; deadline_ms }
            in
            (* same table twice in one batch: the second occurrence must
               come back a cache hit; a 0 ms deadline item cancels without
               harming its neighbours *)
            Client.send c
              { P.id = 11;
                op =
                  P.Solve_many
                    [ item "0110100110010110";
                      item ~deadline_ms:0. "1111000011110000";
                      item "0110";
                      item "0110100110010110" ] };
            let replies = List.init 4 (fun _ -> expect_ok' (Client.recv c)) in
            List.iteri
              (fun k (r : P.reply) ->
                Helpers.check_bool "id echoed" true (r.P.r_id = 11);
                Helpers.check_bool "item in order" true (r.P.item = Some k))
              replies;
            (match List.map (fun r -> r.P.body) replies with
            | [ P.Ok_solve a; P.Cancelled _; P.Ok_solve _; P.Ok_solve d ] ->
                Helpers.check_bool "first cold" false a.P.cached;
                Helpers.check_bool "repeat warm" true d.P.cached;
                Helpers.check_bool "repeat identical" true
                  (a.P.digest = d.P.digest && a.P.mincost = d.P.mincost
                 && a.P.order = d.P.order)
            | _ -> Alcotest.fail "expected ok/cancelled/ok/ok");
            (* an empty batch is rejected without touching the queue *)
            (match
               (expect_ok' (Client.roundtrip c { P.id = 12; op = P.Solve_many [] }))
                 .P.body
             with
            | P.Error { code = P.Bad_request; _ } -> ()
            | _ -> Alcotest.fail "expected bad_request");
            (* the connection is still usable for singles afterwards *)
            match
              (expect_ok' (Client.roundtrip c { P.id = 13; op = P.Ping })).P.body
            with
            | P.Pong -> ()
            | _ -> Alcotest.fail "expected pong"));
    Helpers.case "daemon: prom file is final once wait returns" (fun () ->
        (* regression: the exporter ticker used to race shutdown — wait
           could return while a stale ticker write was still in flight,
           clobbering the final scrape.  stop_and_flush now joins the
           ticker before the last write, so after wait the file must be
           complete and must never change again. *)
        let sock = temp_sock () in
        let prom_path = Filename.temp_file "ovo-prom" ".prom" in
        let cfg =
          { (Server.default_config ~listen:(P.Unix_sock sock)) with
            Server.workers = 1;
            prom = Some (Server.Prom_file prom_path) }
        in
        let server = Server.start cfg in
        let waiter = Thread.create (fun () -> Server.wait server) () in
        (Client.with_conn (P.Unix_sock sock) @@ fun c ->
         ignore
           (expect_ok'
              (Client.roundtrip c
                 { P.id = 1;
                   op =
                     P.Solve
                       { P.table = "0110100110010110";
                         kind = Ovo_core.Compact.Bdd;
                         engine = Ovo_core.Engine.Seq; deadline_ms = None } })));
        Server.shutdown server;
        Thread.join waiter;
        let read_all path =
          let ic = open_in_bin path in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          s
        in
        let final = read_all prom_path in
        Helpers.check_bool "final write landed" true
          (String.length final > 0
          && (let needle = "ovo_requests_total" in
              let rec find i =
                i + String.length needle <= String.length final
                && (String.sub final i (String.length needle) = needle
                   || find (i + 1))
              in
              find 0));
        (* nothing may touch the file after wait: no live ticker, no
           leftover tmp from a torn rename *)
        Thread.delay 1.2;
        Helpers.check_bool "quiescent after wait" true
          (read_all prom_path = final);
        Helpers.check_bool "no tmp left behind" false
          (Sys.file_exists (prom_path ^ ".tmp"));
        Sys.remove prom_path);
    Helpers.case "daemon: store persists results across a restart"
      (fun () ->
        let dir = Filename.temp_file "ovo-serve-store" "" in
        Sys.remove dir;
        let run_once f =
          let sock = temp_sock () in
          let cfg =
            { (Server.default_config ~listen:(P.Unix_sock sock)) with
              Server.workers = 1; store_dir = Some dir }
          in
          let server = Server.start cfg in
          let waiter = Thread.create (fun () -> Server.wait server) () in
          Fun.protect
            ~finally:(fun () ->
              Server.shutdown server;
              Thread.join waiter)
            (fun () ->
              Client.with_conn (P.Unix_sock sock) @@ fun c -> f c)
        in
        let solve c table =
          expect_ok
            (Client.roundtrip c
               { P.id = 1;
                 op =
                   P.Solve
                     { P.table; kind = Ovo_core.Compact.Bdd;
                       engine = Ovo_core.Engine.Seq; deadline_ms = None } })
        in
        let first =
          run_once (fun c ->
              match solve c "0110100110010110" with
              | P.Ok_solve r ->
                  Helpers.check_bool "cold" false r.P.cached;
                  r
              | _ -> Alcotest.fail "expected a solve reply")
        in
        (* second daemon, same directory: the result must come back warm,
           byte-identical, without rerunning the DP *)
        run_once (fun c ->
            (match solve c "0110100110010110" with
            | P.Ok_solve r ->
                Helpers.check_bool "warm from store" true r.P.cached;
                Helpers.check_bool "identical" true
                  (r.P.mincost = first.P.mincost && r.P.order = first.P.order
                 && r.P.widths = first.P.widths
                  && String.equal r.P.digest first.P.digest)
            | _ -> Alcotest.fail "expected a solve reply");
            match expect_ok (Client.roundtrip c { P.id = 2; op = P.Stats }) with
            | P.Ok_stats s ->
                let open Ovo_obs.Json in
                let field path j =
                  List.fold_left
                    (fun acc k -> Option.bind acc (member k))
                    (Some j) path
                in
                Helpers.check_bool "warm_loaded surfaced" true
                  (Option.bind (field [ "store"; "warm_loaded" ] s) to_int_opt
                  = Some 1);
                Helpers.check_bool "no discards" true
                  (Option.bind
                     (field [ "store"; "discarded_records" ] s)
                     to_int_opt
                  = Some 0)
            | _ -> Alcotest.fail "expected stats"));
    Helpers.case "daemon: --mem-budget admits a table its warm store answers"
      (fun () ->
        (* arity 10 needs 67 107 B: over a 60 000 B budget unless the
           answer is already cached *)
        let table k =
          String.init 1024 (fun i -> if i mod k = 1 then '1' else '0')
        in
        let dir = Filename.temp_file "ovo-serve-budget" "" in
        Sys.remove dir;
        let run_once mem_budget f =
          let sock = temp_sock () in
          let cfg =
            { (Server.default_config ~listen:(P.Unix_sock sock)) with
              Server.workers = 1; store_dir = Some dir; mem_budget }
          in
          let server = Server.start cfg in
          let waiter = Thread.create (fun () -> Server.wait server) () in
          Fun.protect
            ~finally:(fun () ->
              Server.shutdown server;
              Thread.join waiter)
            (fun () ->
              Client.with_conn (P.Unix_sock sock) @@ fun c -> f c)
        in
        let solve c table =
          expect_ok
            (Client.roundtrip c
               { P.id = 1;
                 op =
                   P.Solve
                     { P.table; kind = Ovo_core.Compact.Bdd;
                       engine = Ovo_core.Engine.Seq; deadline_ms = None } })
        in
        run_once None (fun c ->
            match solve c (table 5) with
            | P.Ok_solve r -> Helpers.check_bool "cold" false r.P.cached
            | _ -> Alcotest.fail "expected a solve reply");
        run_once (Some 60000) (fun c ->
            (match solve c (table 5) with
            | P.Ok_solve r -> Helpers.check_bool "cached" true r.P.cached
            | _ -> Alcotest.fail "a cached table was refused");
            match solve c (table 7) with
            | P.Error { code = P.Too_large; message; _ } ->
                Helpers.check_bool message true
                  (Helpers.contains message "67107 B")
            | _ -> Alcotest.fail "an uncached arity-10 table was admitted"));
  ]

let () =
  Alcotest.run "serve"
    [
      ("lru", lru_tests);
      ("bqueue", bqueue_tests);
      ("cancel", cancel_tests);
      ("protocol", protocol_tests);
      ("cache", cache_tests);
      ("scored", scored_tests);
      ("stats", stats_tests);
      ("props", Helpers.qtests props);
      ("e2e", e2e_tests);
    ]
