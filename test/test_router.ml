(* The routing layer: consistent-hash placement (exact monotone
   disruption bounds, purity in the live set, replica distinctness —
   all qcheck'd), the health registry, and an in-process end-to-end
   run: three shards behind a router over temp Unix sockets, including
   failover after a shard dies and shard_down when every owner is
   gone.  The load-bearing property is bit-identical answers: whatever
   the fleet returns must equal what one daemon returns. *)

module P = Ovo_serve.Protocol
module Server = Ovo_serve.Server
module Client = Ovo_serve.Client
module Shard_map = Ovo_router.Shard_map
module Health = Ovo_router.Health
module Router = Ovo_router.Router

let all_up _ = true

let mk_shards names =
  List.map
    (fun name -> { Shard_map.name; addr = P.Unix_sock (name ^ ".sock") })
    names

let shard_names n = List.init n (fun i -> Printf.sprintf "s%02d" i)

let owner_name names key =
  let m = Shard_map.make (mk_shards names) in
  match Shard_map.owner m ~live:all_up key with
  | Some s -> s.Shard_map.name
  | None -> Alcotest.fail "no owner with all shards live"

let unit_tests =
  [
    Helpers.case "make rejects empty and duplicate shard lists" (fun () ->
        let bad l =
          match Shard_map.make l with
          | exception Invalid_argument _ -> true
          | _ -> false
        in
        Helpers.check_bool "empty" true (bad []);
        Helpers.check_bool "dup" true (bad (mk_shards [ "a"; "a" ])));
    Helpers.case "input order does not matter" (fun () ->
        let key = "somekey" in
        let fwd = owner_name (shard_names 5) key in
        let rev = owner_name (List.rev (shard_names 5)) key in
        Helpers.check_bool "same owner" true (fwd = rev));
    Helpers.case "dead primary falls over to the next replica" (fun () ->
        let m = Shard_map.make (mk_shards (shard_names 4)) in
        let key = "k" in
        match Shard_map.owners ~replicas:2 m ~live:all_up key with
        | [ a; b ] ->
            let live n = n <> a.Shard_map.name in
            (match Shard_map.owner m ~live key with
            | Some s ->
                Helpers.check_bool "failover is the old second" true
                  (s.Shard_map.name = b.Shard_map.name)
            | None -> Alcotest.fail "no owner");
            Helpers.check_bool "distinct replicas" true
              (a.Shard_map.name <> b.Shard_map.name)
        | _ -> Alcotest.fail "expected two owners");
    Helpers.case "no live shard means no owner" (fun () ->
        let m = Shard_map.make (mk_shards (shard_names 3)) in
        Helpers.check_bool "empty" true
          (Shard_map.owners ~replicas:2 m ~live:(fun _ -> false) "k" = []));
    Helpers.case "health: probe sweep and data-path feeders flip liveness"
      (fun () ->
        let changes = ref [] in
        let h =
          Health.start ~interval:60. ~timeout:0.1
            ~on_change:(fun n up -> changes := (n, up) :: !changes)
            [ ("a", P.Unix_sock "/nonexistent-a.sock");
              ("b", P.Unix_sock "/nonexistent-b.sock") ]
        in
        Fun.protect
          ~finally:(fun () -> Health.stop h)
          (fun () ->
            (* the initial probe sweep (unreachable sockets fail fast)
               corrects the optimistic start; the next sweep is 60 s out,
               so after it the data-path feeders act alone *)
            let deadline = Unix.gettimeofday () +. 5. in
            while
              (Health.is_up h "a" || Health.is_up h "b")
              && Unix.gettimeofday () < deadline
            do
              Thread.delay 0.02
            done;
            Helpers.check_bool "probe marked a down" false (Health.is_up h "a");
            Helpers.check_bool "probe marked b down" false (Health.is_up h "b");
            Health.mark_up h "a";
            Helpers.check_bool "a up" true (Health.is_up h "a");
            Helpers.check_bool "b untouched" false (Health.is_up h "b");
            Health.mark_down h "a";
            Helpers.check_bool "a down again" false (Health.is_up h "a");
            Helpers.check_bool "transitions seen" true
              (List.mem ("a", false) !changes && List.mem ("a", true) !changes);
            Helpers.check_bool "snapshot lists both" true
              (List.map (fun (n, up, _) -> (n, up)) (Health.snapshot h)
              = [ ("a", false); ("b", false) ])));
  ]

(* --- consistent-hashing properties ------------------------------------ *)

let gen_key =
  QCheck.Gen.(string_size ~gen:printable (int_range 1 40))

let arb_key = QCheck.make ~print:(fun s -> s) gen_key

let props =
  [
    QCheck.Test.make
      ~name:"rendezvous: routing is a pure function of (key, live set)"
      ~count:200
      QCheck.(pair arb_key (int_range 1 8))
      (fun (key, n) ->
        let names = shard_names n in
        let a = owner_name names key in
        let b = owner_name names key in
        a = b);
    QCheck.Test.make
      ~name:"rendezvous: adding a shard moves a key only onto the new shard"
      ~count:100
      QCheck.(pair (int_range 2 8) small_nat)
      (fun (n, salt) ->
        (* exact monotone property, no statistical slack: for every
           key, the owner under [n+1] shards is either the owner
           under [n] shards or the shard that was added *)
        let names = shard_names n in
        let added = Printf.sprintf "added%d" salt in
        let grown = names @ [ added ] in
        List.for_all
          (fun i ->
            let key = Printf.sprintf "key-%d-%d" salt i in
            let before = owner_name names key in
            let after = owner_name grown key in
            after = before || after = added)
          (List.init 50 Fun.id));
    QCheck.Test.make
      ~name:"rendezvous: removing a shard only rehomes that shard's keys"
      ~count:100
      QCheck.(int_range 3 8)
      (fun n ->
        (* removal seen as failure: keys not owned by the dead shard
           keep their owner exactly *)
        let names = shard_names n in
        let m = Shard_map.make (mk_shards names) in
        let dead = List.hd names in
        let live n = n <> dead in
        List.for_all
          (fun i ->
            let key = Printf.sprintf "key-%d" i in
            match Shard_map.owner m ~live:all_up key with
            | None -> false
            | Some before ->
                if before.Shard_map.name = dead then true
                else Shard_map.owner m ~live key = Some before)
          (List.init 60 Fun.id));
    QCheck.Test.make
      ~name:"rendezvous: about 1/N of keys move on shard add"
      ~count:10
      QCheck.(int_range 3 6)
      (fun n ->
        let names = shard_names n in
        let grown = names @ [ "extra" ] in
        let keys = List.init 400 (Printf.sprintf "bulk-key-%d") in
        let moved =
          List.length
            (List.filter
               (fun k -> owner_name names k <> owner_name grown k)
               keys)
        in
        (* expectation is 400/(n+1); accept a generous band — the
           point is "a fraction", not "all" or "none" *)
        let expect = 400. /. float_of_int (n + 1) in
        float_of_int moved > 0.3 *. expect
        && float_of_int moved < 3. *. expect);
    QCheck.Test.make
      ~name:"rendezvous: replica lists are distinct shards"
      ~count:100
      QCheck.(pair arb_key (int_range 2 8))
      (fun (key, n) ->
        let m = Shard_map.make (mk_shards (shard_names n)) in
        let owners =
          Shard_map.owners ~replicas:3 m ~live:all_up key
          |> List.map (fun s -> s.Shard_map.name)
        in
        List.length owners = min 3 n
        && List.length (List.sort_uniq compare owners)
           = List.length owners);
  ]

(* --- end-to-end: three shards behind a router ------------------------- *)

let temp_sock () =
  let path = Filename.temp_file "ovo-router-test" ".sock" in
  Sys.remove path;
  path

let expect_ok = function
  | Ok (r : P.reply) -> r
  | Error (`Msg m) -> Alcotest.fail m

let solve_op ?deadline_ms table =
  P.Solve
    { P.table; kind = Ovo_core.Compact.Bdd; engine = Ovo_core.Engine.Seq;
      deadline_ms }

let start_shard name =
  let sock = temp_sock () in
  let cfg =
    { (Server.default_config ~listen:(P.Unix_sock sock)) with
      Server.workers = 1; shard_id = Some name }
  in
  let server = Server.start cfg in
  let waiter = Thread.create (fun () -> Server.wait server) () in
  (name, sock, server, waiter)

let stop_shard (_, _, server, waiter) =
  Server.shutdown server;
  Thread.join waiter

let with_fleet ?(n = 3) ?(replicas = 2) f =
  let shards = List.init n (fun i -> start_shard (Printf.sprintf "s%d" i)) in
  let rsock = temp_sock () in
  let cfg =
    { (Router.default_config ~listen:(P.Unix_sock rsock)
         ~shards:
           (List.map
              (fun (name, sock, _, _) ->
                { Shard_map.name; addr = P.Unix_sock sock })
              shards))
      with
      Router.replicas;
      (* long probe interval: failover in these tests must come from the
         data path alone, which is the stronger claim *)
      health_interval = 60.;
      connect_timeout = 1.0;
      backoff_ms = 5. }
  in
  let router = Router.start cfg in
  let rwaiter = Thread.create (fun () -> Router.wait router) () in
  Fun.protect
    ~finally:(fun () ->
      Router.shutdown router;
      Thread.join rwaiter;
      List.iter
        (fun ((_, _, server, _) as s) ->
          (* idempotent: some tests stop shards themselves *)
          Server.shutdown server;
          stop_shard s)
        shards)
    (fun () -> f ~router_addr:(P.Unix_sock rsock) ~shards)

let tables =
  [ "0110100110010110"; "0000000011111111"; "0110"; "10010110";
    "1111000011110000"; "01101001"; "0101010101010101"; "0011001111001100" ]

let e2e_tests =
  [
    Helpers.case "fleet answers are bit-identical to a lone daemon"
      (fun () ->
        (* reference run: one daemon, no router *)
        let (_, ssock, _, _) as lone = start_shard "lone" in
        let reference =
          Fun.protect
            ~finally:(fun () -> stop_shard lone)
            (fun () ->
              Client.with_conn (P.Unix_sock ssock) @@ fun c ->
              List.map
                (fun t ->
                  match
                    (expect_ok (Client.roundtrip c { P.id = 0; op = solve_op t }))
                      .P.body
                  with
                  | P.Ok_solve r -> (r.P.digest, r.P.mincost, r.P.order)
                  | _ -> Alcotest.fail "reference solve failed")
                tables)
        in
        with_fleet (fun ~router_addr ~shards:_ ->
            Client.with_conn router_addr @@ fun c ->
            (* ping answers from the router itself *)
            Helpers.check_bool "ping" true
              ((expect_ok (Client.roundtrip c { P.id = 7; op = P.Ping })).P.body
              = P.Pong);
            List.iteri
              (fun i t ->
                match
                  (expect_ok (Client.roundtrip c { P.id = i; op = solve_op t }))
                    .P.body
                with
                | P.Ok_solve r ->
                    Helpers.check_bool "identical answer" true
                      (List.nth reference i
                      = (r.P.digest, r.P.mincost, r.P.order))
                | _ -> Alcotest.fail "fleet solve failed")
              tables;
            (* second pass: all cache hits, still identical *)
            List.iteri
              (fun i t ->
                match
                  (expect_ok (Client.roundtrip c { P.id = i; op = solve_op t }))
                    .P.body
                with
                | P.Ok_solve r ->
                    Helpers.check_bool "cache hit on repeat" true r.P.cached;
                    Helpers.check_bool "identical cached answer" true
                      (List.nth reference i
                      = (r.P.digest, r.P.mincost, r.P.order))
                | _ -> Alcotest.fail "fleet re-solve failed")
              tables))
    ;
    Helpers.case "solve_many streams per-item replies in order" (fun () ->
        with_fleet (fun ~router_addr ~shards:_ ->
            Client.with_conn router_addr @@ fun c ->
            let items =
              List.map
                (fun t ->
                  { P.table = t; kind = Ovo_core.Compact.Bdd;
                    engine = Ovo_core.Engine.Seq; deadline_ms = None })
                tables
            in
            Client.send c { P.id = 5; op = P.Solve_many items };
            let n = List.length items in
            let replies = List.init n (fun _ -> expect_ok (Client.recv c)) in
            List.iteri
              (fun k r ->
                Helpers.check_bool "id echoed" true (r.P.r_id = 5);
                Helpers.check_bool "item tag in order" true
                  (r.P.item = Some k);
                match r.P.body with
                | P.Ok_solve ok ->
                    (* answer must match a direct single solve *)
                    let direct =
                      (expect_ok
                         (Client.roundtrip c
                            { P.id = 100 + k;
                              op = solve_op (List.nth tables k) }))
                        .P.body
                    in
                    (match direct with
                    | P.Ok_solve d ->
                        Helpers.check_bool "batch = single" true
                          (d.P.digest = ok.P.digest
                          && d.P.mincost = ok.P.mincost
                          && d.P.order = ok.P.order)
                    | _ -> Alcotest.fail "direct solve failed")
                | _ -> Alcotest.fail "expected per-item solve reply")
              replies;
            (* an empty batch is a bad request, answered locally *)
            match
              (expect_ok (Client.roundtrip c { P.id = 6; op = P.Solve_many [] }))
                .P.body
            with
            | P.Error { code = P.Bad_request; _ } -> ()
            | _ -> Alcotest.fail "expected bad_request for empty batch"))
    ;
    Helpers.case "per-item deadlines cancel items, not the batch" (fun () ->
        with_fleet (fun ~router_addr ~shards:_ ->
            Client.with_conn router_addr @@ fun c ->
            let item ?deadline_ms t =
              { P.table = t; kind = Ovo_core.Compact.Bdd;
                engine = Ovo_core.Engine.Seq; deadline_ms }
            in
            Client.send c
              { P.id = 9;
                op =
                  P.Solve_many
                    [ item "0110100110010110";
                      item ~deadline_ms:0. "1001011001101001";
                      item "0110" ] };
            let r0 = expect_ok (Client.recv c) in
            let r1 = expect_ok (Client.recv c) in
            let r2 = expect_ok (Client.recv c) in
            (match (r0.P.body, r1.P.body, r2.P.body) with
            | P.Ok_solve _, P.Cancelled _, P.Ok_solve _ -> ()
            | _ -> Alcotest.fail "expected ok / cancelled / ok");
            Helpers.check_bool "items tagged 0,1,2" true
              (List.map (fun r -> r.P.item) [ r0; r1; r2 ]
              = [ Some 0; Some 1; Some 2 ])))
    ;
    Helpers.case "failover: killing one shard loses no requests" (fun () ->
        with_fleet ~n:3 ~replicas:2 (fun ~router_addr ~shards ->
            (* warm: learn each table's answer through the router *)
            let answers =
              Client.with_conn router_addr @@ fun c ->
              List.map
                (fun t ->
                  match
                    (expect_ok (Client.roundtrip c { P.id = 0; op = solve_op t }))
                      .P.body
                  with
                  | P.Ok_solve r -> (t, (r.P.digest, r.P.mincost))
                  | _ -> Alcotest.fail "warm solve failed")
                tables
            in
            (* kill the first shard outright *)
            stop_shard (List.hd shards);
            (* every table must still answer, on a fresh connection,
               bit-identically — replicas=2 guarantees a live owner *)
            Client.with_conn router_addr @@ fun c ->
            List.iteri
              (fun i (t, expect) ->
                match
                  (expect_ok (Client.roundtrip c { P.id = i; op = solve_op t }))
                    .P.body
                with
                | P.Ok_solve r ->
                    Helpers.check_bool "failover answer identical" true
                      ((r.P.digest, r.P.mincost) = expect)
                | P.Error { code; _ } ->
                    Alcotest.fail
                      ("unexpected error after failover: "
                      ^ P.error_code_to_string code)
                | _ -> Alcotest.fail "unexpected reply after failover")
              answers))
    ;
    Helpers.case "shard_down only when every owner is dead" (fun () ->
        (* consistent hashing rehomes a dead shard's keys onto the live
           ones (that is the point), so shard_down appears only when the
           whole live set is exhausted *)
        with_fleet ~n:2 ~replicas:2 (fun ~router_addr ~shards ->
            (* one shard down: everything still answers *)
            stop_shard (List.hd shards);
            (Client.with_conn router_addr @@ fun c ->
             List.iter
               (fun t ->
                 match
                   (expect_ok (Client.roundtrip c { P.id = 0; op = solve_op t }))
                     .P.body
                 with
                 | P.Ok_solve _ -> ()
                 | _ -> Alcotest.fail "one live shard must still answer")
               tables);
            (* both shards down: every solve is shard_down, nothing hangs,
               and the router itself keeps answering local ops *)
            List.iter stop_shard (List.tl shards);
            Client.with_conn router_addr @@ fun c ->
            List.iter
              (fun t ->
                match
                  (expect_ok (Client.roundtrip c { P.id = 1; op = solve_op t }))
                    .P.body
                with
                | P.Error { code = P.Shard_down; _ } -> ()
                | _ -> Alcotest.fail "expected shard_down with no live shard")
              tables;
            (* batches degrade the same way, per item *)
            Client.send c
              { P.id = 2;
                op =
                  P.Solve_many
                    (List.map
                       (fun t ->
                         { P.table = t; kind = Ovo_core.Compact.Bdd;
                           engine = Ovo_core.Engine.Seq; deadline_ms = None })
                       [ "0110"; "1001" ]) };
            List.iter
              (fun k ->
                let r = expect_ok (Client.recv c) in
                Helpers.check_bool "item tagged" true (r.P.item = Some k);
                match r.P.body with
                | P.Error { code = P.Shard_down; _ } -> ()
                | _ -> Alcotest.fail "expected per-item shard_down")
              [ 0; 1 ];
            Helpers.check_bool "ping still local" true
              ((expect_ok (Client.roundtrip c { P.id = 3; op = P.Ping })).P.body
              = P.Pong)))
    ;
    Helpers.case "router stats report shards and routed requests" (fun () ->
        with_fleet (fun ~router_addr ~shards:_ ->
            Client.with_conn router_addr @@ fun c ->
            ignore
              (expect_ok
                 (Client.roundtrip c
                    { P.id = 0; op = solve_op "0110100110010110" }));
            match
              (expect_ok (Client.roundtrip c { P.id = 1; op = P.Stats })).P.body
            with
            | P.Ok_stats s ->
                let open Ovo_obs.Json in
                Helpers.check_bool "role=router" true
                  (Option.bind (member "role" s) to_string_opt = Some "router");
                let shards_obj = member "shards" s in
                Helpers.check_bool "three shard rows" true
                  (match shards_obj with
                  | Some (Obj rows) -> List.length rows = 3
                  | _ -> false)
            | _ -> Alcotest.fail "expected stats"))
    ;
  ]

let () =
  Alcotest.run "router"
    [
      ("shard-map", unit_tests);
      ("hash-props", Helpers.qtests props);
      ("e2e", e2e_tests);
    ]
