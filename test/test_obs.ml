(* The observability layer: span bookkeeping under a fake clock, the
   Chrome exporter's well-formedness (checked with the library's own
   JSON parser), the Metrics JSON round-trip, and the two invariants
   that make traces trustworthy — tracing must not change results, and
   the per-domain spans of a Par layer must sum to the merged totals. *)

module Trace = Ovo_obs.Trace
module Export = Ovo_obs.Export
module Json = Ovo_obs.Json
module M = Ovo_core.Metrics
module E = Ovo_core.Engine
module Fs = Ovo_core.Fs
module T = Ovo_boolfun.Truthtable

(* A deterministic clock: each reading is one tick later. *)
let fake_clock () =
  let t = ref 0. in
  fun () ->
    t := !t +. 1.;
    !t

let tracer () = Trace.make ~clock:(fake_clock ()) ~sample_gc:false ()

let span_names t = List.map (fun s -> s.Trace.name) (Trace.spans t)

let unit_tests =
  [
    Helpers.case "null tracer records nothing" (fun () ->
        let x =
          Trace.with_span Trace.null "untraced" (fun () ->
              Trace.instant Trace.null "nope";
              Trace.counter Trace.null "nope" 1.;
              42)
        in
        Helpers.check_int "value" 42 x;
        Helpers.check_int "events" 0 (Trace.event_count Trace.null);
        Helpers.check_bool "disabled" false (Trace.enabled Trace.null));
    Helpers.case "spans close in child-before-parent order" (fun () ->
        let t = tracer () in
        Trace.with_span t "outer" (fun () ->
            Trace.with_span t "inner1" (fun () -> ());
            Trace.with_span t "inner2" (fun () -> ()));
        Alcotest.(check (list string))
          "close order"
          [ "inner1"; "inner2"; "outer" ]
          (span_names t));
    Helpers.case "no negative durations; children nest in the parent"
      (fun () ->
        let t = tracer () in
        Trace.with_span t "outer" (fun () ->
            Trace.with_span t "inner" (fun () -> ()));
        let spans = Trace.spans t in
        List.iter
          (fun s ->
            Helpers.check_bool
              (Printf.sprintf "%s stop >= start" s.Trace.name)
              true
              (s.Trace.stop >= s.Trace.start))
          spans;
        match spans with
        | [ inner; outer ] ->
            Helpers.check_bool "containment" true
              (outer.Trace.start <= inner.Trace.start
              && inner.Trace.stop <= outer.Trace.stop)
        | _ -> Alcotest.fail "expected two spans");
    Helpers.case "span recorded when the body raises" (fun () ->
        let t = tracer () in
        (try
           Trace.with_span t "boom" (fun () -> failwith "expected")
         with Failure _ -> ());
        Alcotest.(check (list string)) "recorded" [ "boom" ] (span_names t));
    Helpers.case "args thunk runs at close and sees the body's effects"
      (fun () ->
        let t = tracer () in
        let celebrated = ref 0 in
        Trace.with_span t
          ~args:(fun () -> [ ("n", Json.Int !celebrated) ])
          "delta"
          (fun () -> celebrated := 7);
        match Trace.spans t with
        | [ s ] ->
            Helpers.check_bool "arg carries the delta" true
              (s.Trace.args = [ ("n", Json.Int 7) ])
        | _ -> Alcotest.fail "expected one span");
    Helpers.case "clear resets; on_event hook fires per event" (fun () ->
        let t = tracer () in
        let seen = ref 0 in
        Trace.on_event t (fun _ -> incr seen);
        Trace.with_span t "a" (fun () -> Trace.instant t "i");
        Trace.counter t "c" 1.;
        Helpers.check_int "hooked" 3 !seen;
        Helpers.check_int "counted" 3 (Trace.event_count t);
        Trace.clear t;
        Helpers.check_int "cleared" 0 (Trace.event_count t));
    Helpers.case "chrome export is well-formed trace_event JSON" (fun () ->
        let t = tracer () in
        Trace.with_span t ~cat:"dp"
          ~args:(fun () -> [ ("k", Json.Int 1) ])
          "layer k=1"
          (fun () -> Trace.instant t ~cat:"heur" "tick");
        Trace.counter t "cells" 12.;
        let doc =
          match Json.parse (Export.chrome t) with
          | Ok doc -> doc
          | Error m -> Alcotest.fail ("chrome JSON does not parse: " ^ m)
        in
        (match Json.member "displayTimeUnit" doc with
        | Some (Json.String "ms") -> ()
        | _ -> Alcotest.fail "missing displayTimeUnit");
        let evs =
          match Json.member "traceEvents" doc with
          | Some (Json.List evs) -> evs
          | _ -> Alcotest.fail "traceEvents missing or not a list"
        in
        Helpers.check_int "one event per probe" 3 (List.length evs);
        (* every event: a known phase, a name, pid/tid ints, ts number;
           complete events also carry a non-negative dur *)
        List.iter
          (fun ev ->
            let field name =
              match Json.member name ev with
              | Some v -> v
              | None -> Alcotest.fail ("event lacks " ^ name)
            in
            (match field "ph" with
            | Json.String ("X" | "i" | "C") -> ()
            | _ -> Alcotest.fail "unknown phase");
            (match field "name" with
            | Json.String _ -> ()
            | _ -> Alcotest.fail "name not a string");
            (match (field "pid", field "tid") with
            | Json.Int _, Json.Int _ -> ()
            | _ -> Alcotest.fail "pid/tid not ints");
            (match Json.to_float_opt (field "ts") with
            | Some ts -> Helpers.check_bool "ts >= 0" true (ts >= 0.)
            | None -> Alcotest.fail "ts not a number");
            match Json.member "dur" ev with
            | Some d -> (
                match Json.to_float_opt d with
                | Some d -> Helpers.check_bool "dur >= 0" true (d >= 0.)
                | None -> Alcotest.fail "dur not a number")
            | None -> ())
          evs;
        (* ts ascending: Perfetto does not require it but chrome://tracing
           renders sorted input much faster, so the exporter sorts *)
        let tss =
          List.map
            (fun ev ->
              match Json.member "ts" ev with
              | Some t -> Option.get (Json.to_float_opt t)
              | None -> nan)
            evs
        in
        Helpers.check_bool "sorted by ts" true
          (List.sort compare tss = tss));
    Helpers.case "jsonl export: one parsable object per event" (fun () ->
        let t = tracer () in
        Trace.with_span t "s" (fun () -> ());
        Trace.instant t "i";
        let lines =
          String.split_on_char '\n' (String.trim (Export.jsonl t))
        in
        Helpers.check_int "lines" 2 (List.length lines);
        List.iter
          (fun line ->
            match Json.parse line with
            | Ok (Json.Obj fields) ->
                Helpers.check_bool "kind present" true
                  (List.mem_assoc "kind" fields)
            | Ok _ -> Alcotest.fail "line not an object"
            | Error m -> Alcotest.fail m)
          lines);
    Helpers.case "summary mentions every span name" (fun () ->
        let t = tracer () in
        Trace.with_span t "alpha" (fun () ->
            Trace.with_span t "beta" (fun () -> ()));
        let s = Export.summary t in
        let mem needle hay =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        Helpers.check_bool "alpha" true (mem "alpha" s);
        Helpers.check_bool "beta" true (mem "beta" s));
    Helpers.case "metrics JSON round-trip (hand value)" (fun () ->
        let m = M.create () in
        M.add_cells m 123;
        M.add_probe m;
        M.add_nodes m 1;
        M.add_state m;
        M.add_compaction m;
        let s = M.snapshot m in
        match M.of_json (M.to_json s) with
        | Some s' -> Helpers.check_bool "round-trip" true (s = s')
        | None -> Alcotest.fail "of_json rejected to_json output");
    Helpers.case "metrics of_json rejects junk" (fun () ->
        Helpers.check_bool "garbage" true (M.of_json "nonsense" = None);
        Helpers.check_bool "missing field" true
          (M.of_json "{\"table_cells\": 3}" = None));
    Helpers.case "json string escaping survives a parse round-trip"
      (fun () ->
        let nasty = "a\"b\\c\nd\te\x01f" in
        let doc = Json.Obj [ ("s", Json.String nasty) ] in
        match Json.parse (Json.to_string doc) with
        | Ok (Json.Obj [ ("s", Json.String s) ]) ->
            Helpers.check_bool "same string" true (s = nasty)
        | _ -> Alcotest.fail "escape round-trip failed");
    Helpers.case "fs layer spans carry the merged metrics delta" (fun () ->
        let t = Trace.make ~sample_gc:false () in
        let metrics = M.create () in
        let tt = T.random (Helpers.rng 5) 6 in
        let _ = Fs.run ~trace:t ~metrics tt in
        let total = (M.snapshot metrics).M.s_table_cells in
        let layer_cells =
          List.fold_left
            (fun acc s ->
              if s.Trace.cat = "dp" && s.Trace.name <> "dp.sweep" then
                match List.assoc_opt "table_cells" s.Trace.args with
                | Some (Json.Int c) -> acc + c
                | _ -> acc
              else acc)
            0 (Trace.spans t)
        in
        Helpers.check_int "layer deltas sum to the run total" total
          layer_cells);
  ]

let props =
  [
    QCheck.Test.make ~name:"tracing never changes the result" ~count:40
      (Helpers.arb_truthtable ~lo:1 ~hi:7 ())
      (fun tt ->
        let plain = Fs.run tt in
        let t = Trace.make ~sample_gc:false () in
        let traced = Fs.run ~trace:t tt in
        plain.Fs.mincost = traced.Fs.mincost
        && plain.Fs.order = traced.Fs.order
        && Trace.event_count t > 0);
    QCheck.Test.make ~name:"Par domain spans sum to the layer totals"
      ~count:15
      (Helpers.arb_truthtable ~lo:4 ~hi:7 ())
      (fun tt ->
        let t = Trace.make ~sample_gc:false () in
        let metrics = M.create () in
        let _ = Fs.run ~trace:t ~engine:(E.par ~domains:2 ()) ~metrics tt in
        let sum pred field =
          List.fold_left
            (fun acc s ->
              if pred s then
                match List.assoc_opt field s.Trace.args with
                | Some (Json.Int c) -> acc + c
                | _ -> acc
              else acc)
            0 (Trace.spans t)
        in
        let is_domain s = s.Trace.cat = "engine" in
        let is_layer s = s.Trace.cat = "dp" && s.Trace.name <> "dp.sweep"
                         && s.Trace.name <> "dp.reconstruct" in
        List.for_all
          (fun field ->
            sum is_domain field = sum is_layer field)
          [ "table_cells"; "cost_probes"; "node_creations";
            "states_materialised"; "node_table_copies" ]);
    QCheck.Test.make ~name:"metrics JSON round-trips for random runs"
      ~count:40
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        let m = M.create () in
        let _ = Fs.run ~metrics:m tt in
        let s = M.snapshot m in
        M.of_json (M.to_json s) = Some s);
  ]

let () =
  Alcotest.run "obs" [ ("unit", unit_tests); ("props", Helpers.qtests props) ]
