open Perfbench
module Tt = Ovo_boolfun.Truthtable
module Json = Ovo_obs.Json

let floats = Alcotest.(check (float 0.))

let test_nearest_rank () =
  let ten = List.init 10 (fun i -> float (10 - i)) in
  floats "p50 of 1..10" 5. (Pct.nearest_rank ~p:50 ten);
  floats "p90 of 1..10" 9. (Pct.nearest_rank ~p:90 ten);
  floats "p99 of 1..10" 10. (Pct.nearest_rank ~p:99 ten);
  floats "p1 of 1..10" 1. (Pct.nearest_rank ~p:1 ten);
  let five = [ 35.; 20.; 50.; 15.; 40. ] in
  floats "p30 of five" 20. (Pct.nearest_rank ~p:30 five);
  floats "p40 of five" 20. (Pct.nearest_rank ~p:40 five);
  floats "p50 of five" 35. (Pct.nearest_rank ~p:50 five);
  floats "p100 of five" 50. (Pct.nearest_rank ~p:100 five);
  floats "single sample" 7. (Pct.nearest_rank ~p:90 [ 7. ]);
  Alcotest.(check int) "rank p90 of 99" 90 (Pct.rank ~p:90 99);
  Alcotest.(check int) "rank p99 of 1000" 990 (Pct.rank ~p:99 1000);
  floats "median odd" 35. (Pct.median five);
  floats "median even" 5.5 (Pct.median ten);
  Alcotest.check_raises "no samples" (Invalid_argument "Pct.nearest_rank: no samples")
    (fun () -> ignore (Pct.nearest_rank ~p:50 []))

let test_ten_beyond () =
  let yes = Alcotest.(check bool) in
  yes "p99 of 1000: 10 beyond" true (Pct.reportable ~p:99 1000);
  yes "p99 of 999: 9 beyond" false (Pct.reportable ~p:99 999);
  yes "p90 of 100: 10 beyond" true (Pct.reportable ~p:90 100);
  yes "p90 of 99: 9 beyond" false (Pct.reportable ~p:90 99);
  yes "p50 of 20: 10 beyond" true (Pct.reportable ~p:50 20);
  yes "no samples" false (Pct.reportable ~p:50 0);
  Alcotest.(check int) "beyond p99 of 2000" 20 (Pct.beyond ~p:99 2000)

let test_names () =
  let all = Names.end_to_end @ Names.per_layer in
  List.iter
    (fun (m : Names.metric) ->
      if not (Names.valid_name m.name) then Alcotest.failf "bad name %S" m.name)
    all;
  Alcotest.(check bool) "<= 16 end-to-end" true (List.length Names.end_to_end <= 16);
  Alcotest.(check bool) "<= 128 per-layer" true (List.length Names.per_layer <= 128);
  let names = List.map (fun (m : Names.metric) -> m.name) all in
  Alcotest.(check int) "each name once" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "regex rejects a space" false (Names.valid_name "a b");
  Alcotest.(check bool) "regex rejects a leading dot" false (Names.valid_name ".a");
  Alcotest.(check bool) "regex takes dots" true (Names.valid_name "serve.queue_wait_ms.p50")

(* BENCHMARK.json declares exactly the metrics the runner prints. *)
let test_benchmark_json () =
  let j =
    match Json.parse (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error m -> Alcotest.fail m
  in
  let declared key =
    match Json.member key j with
    | Some (Json.List xs) ->
        List.map
          (fun x ->
            let s k = Option.bind (Json.member k x) Json.to_string_opt in
            (s "name", s "unit", s "better"))
          xs
    | _ -> Alcotest.failf "no %s list" key
  in
  let ours ms =
    List.map
      (fun (m : Names.metric) ->
        ( Some m.name, Some m.unit,
          Some (match m.better with Names.Lower -> "lower" | Higher -> "higher") ))
      ms
  in
  let t = Alcotest.(list (triple (option string) (option string) (option string))) in
  Alcotest.check t "end_to_end" (ours Names.end_to_end) (declared "end_to_end");
  Alcotest.check t "per_layer" (ours Names.per_layer) (declared "per_layer");
  match Json.member "workloads" j with
  | Some (Json.List ws) ->
      Alcotest.(check (list (option string))) "workloads"
        (List.map (fun w -> Some (Inputs.to_string w)) Inputs.all)
        (List.map (fun w -> Option.bind (Json.member "name" w) Json.to_string_opt) ws)
  | _ -> Alcotest.fail "no workloads"

let test_fingerprint () =
  let fp w s = (Inputs.exact w s).Inputs.x_fingerprint in
  let same = Alcotest.(check string) and differ a b = Alcotest.(check bool) "seeds differ" true (a <> b) in
  List.iter
    (fun w ->
      same "same seed" (fp w 7) (fp w 7);
      differ (fp w 7) (fp w 8))
    [ Inputs.Exact_random; Inputs.Exact_hwb_prune ];
  let sp s = (Inputs.serve s).Inputs.s_fingerprint in
  same "serve, same seed" (sp 7) (sp 7);
  differ (sp 7) (sp 8);
  (* exact-random and exact-par solve the same tables *)
  let pool w = Array.map Tt.to_string (Inputs.exact w 7).Inputs.pool in
  Alcotest.(check (array string)) "par shares the tables"
    (pool Inputs.Exact_random) (pool Inputs.Exact_par);
  (* the warm-up charged to setup_s does the same work on every seed *)
  List.iter
    (fun w ->
      let warm s = Tt.to_string (Inputs.exact w s).Inputs.warmup in
      same "exact warm-up" (warm 7) (warm 8))
    [ Inputs.Exact_random; Inputs.Exact_hwb_prune ];
  let warm s =
    Array.map (fun (r : Inputs.request) -> r.wire) (Inputs.serve s).Inputs.warmup_requests
  in
  Alcotest.(check (array string)) "serve warm-up" (warm 7) (warm 8)

(* Each distinct serve table is sent [serve_repeats] times, each time
   under its own permutation. *)
let test_serve_schedule () =
  let s = Inputs.serve 7 in
  let counts = Hashtbl.create 64 in
  Array.iter
    (fun (r : Inputs.request) ->
      Hashtbl.replace counts r.base (1 + Option.value ~default:0 (Hashtbl.find_opt counts r.base)))
    s.Inputs.schedule;
  Hashtbl.iter
    (fun _ c -> Alcotest.(check int) "repeats" Inputs.serve_repeats c)
    counts;
  Alcotest.(check int) "distinct tables" Inputs.serve_tables (Hashtbl.length counts)

let test_permute_wire () =
  let st = Random.State.make [| 5 |] in
  for n = 1 to 9 do
    let tt = Tt.random st n in
    let p = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = p.(i) in
      p.(i) <- p.(j);
      p.(j) <- t
    done;
    Alcotest.(check string) (Printf.sprintf "arity %d" n)
      (Tt.to_string (Tt.permute_vars tt p))
      (Inputs.permute_wire (Tt.to_string tt) p)
  done

let is_wrong = function Check.Wrong _ -> true | Check.Ok -> false

let test_exact_check () =
  let tt = Ovo_boolfun.Families.hidden_weighted_bit 5 in
  let metrics = Ovo_core.Metrics.create () in
  let r = Ovo_core.Fs.run ~metrics tt in
  let cells = (Ovo_core.Metrics.snapshot metrics).Ovo_core.Metrics.s_table_cells in
  Alcotest.(check int) "Theorem 5" (Check.theorem5_cells 5) cells;
  Alcotest.(check bool) "a right answer passes" false
    (is_wrong (Check.exact ~table_cells:cells ~pinned:r.Ovo_core.Fs.mincost tt r));
  let wrong name v = Alcotest.(check bool) name true (is_wrong v) in
  wrong "wrong pinned optimum" (Check.exact ~pinned:(r.Ovo_core.Fs.mincost + 1) tt r);
  wrong "wrong cell count" (Check.exact ~table_cells:(cells - 1) tt r);
  wrong "wrong size" (Check.exact tt { r with Ovo_core.Fs.size = r.Ovo_core.Fs.size + 1 });
  wrong "cost the order does not reach"
    (Check.exact tt { r with Ovo_core.Fs.mincost = r.Ovo_core.Fs.mincost + 1 });
  wrong "not a permutation"
    (Check.exact tt { r with Ovo_core.Fs.order = Array.make 5 0 });
  wrong "diagram of another table"
    (Check.exact (Tt.not_ tt) r);
  let verdicts = [ Check.Ok; Check.Wrong "x"; Check.Ok ] in
  let o = Check.tally verdicts in
  Alcotest.(check (triple int int int)) "tally" (3, 1, 1)
    (o.Report.attempted, o.Report.failed, o.Report.wrong)

let test_reply_check () =
  let tt = Ovo_boolfun.Families.hidden_weighted_bit 5 in
  let r = Ovo_core.Fs.run tt in
  let reply =
    { Ovo_serve.Solver.digest = Tt.digest tt; mincost = r.Ovo_core.Fs.mincost;
      size = r.Ovo_core.Fs.size; order = Ovo_core.Fs.read_first_order r;
      widths = [||]; cached = false }
  in
  let agreed = Check.agreement () in
  Alcotest.(check bool) "a right reply passes" false
    (is_wrong (Check.reply ~pinned:r.Ovo_core.Fs.mincost ~agreed tt reply));
  let wrong name v = Alcotest.(check bool) name true (is_wrong v) in
  wrong "cost the order does not reach"
    (Check.reply ~agreed tt { reply with mincost = reply.mincost - 1 });
  wrong "not a permutation"
    (Check.reply ~agreed tt { reply with order = Array.make 5 1 });
  wrong "wrong pinned optimum" (Check.reply ~pinned:1 ~agreed tt reply);
  (* a later reply for the same digest must agree with the first *)
  let agreed = Check.agreement () in
  Alcotest.(check (option int)) "first answer" None (agreed reply.digest 1);
  Alcotest.(check (option int)) "same answer" None (agreed reply.digest 1);
  wrong "disagrees with an earlier reply" (Check.reply ~agreed tt reply)

let test_result_line () =
  let expected = Names.end_to_end in
  let values = List.map (fun (m : Names.metric) -> (m.name, 1.5)) expected in
  let line =
    Report.line ~outcome:{ Report.attempted = 4; failed = 1; wrong = 1 } ~expected values
  in
  (match Json.parse line with
  | Ok j ->
      Alcotest.(check (option bool)) "correct" (Some false)
        (Option.bind (Json.member "correct" j) Json.to_bool_opt);
      Alcotest.(check (option int)) "failed" (Some 1)
        (Option.bind (Json.member "failed" j) Json.to_int_opt);
      Alcotest.(check (option string)) "unit" (Some "s")
        (Option.bind (Json.find_path [ "metrics"; "setup_s"; "unit" ] j) Json.to_string_opt)
  | Error m -> Alcotest.fail m);
  Alcotest.check_raises "a missing metric" (Invalid_argument "Report.line: missing metric warm_p50_ms")
    (fun () ->
      ignore
        (Report.line ~outcome:{ Report.attempted = 1; failed = 0; wrong = 0 } ~expected
           (List.filter (fun (n, _) -> n <> "warm_p50_ms") values)))

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [ Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "ten beyond" `Quick test_ten_beyond ] );
      ( "metrics",
        [ Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
          Alcotest.test_case "result line" `Quick test_result_line ] );
      ( "inputs",
        [ Alcotest.test_case "fingerprint" `Quick test_fingerprint;
          Alcotest.test_case "serve schedule" `Quick test_serve_schedule;
          Alcotest.test_case "wire permutation" `Quick test_permute_wire ] );
      ( "checks",
        [ Alcotest.test_case "exact answers" `Quick test_exact_check;
          Alcotest.test_case "served answers" `Quick test_reply_check ] );
    ]
