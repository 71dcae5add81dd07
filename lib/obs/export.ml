let span_cat cat = if cat = "" then "ovo" else cat

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON — the "JSON Object Format" with a
   [traceEvents] array, loadable by chrome://tracing and Perfetto.
   Timestamps are microseconds relative to the tracer's epoch; spans
   become complete ("X") events, instants "i", counters "C". *)

let us epoch t = (t -. epoch) *. 1e6

let chrome_event epoch (ev : Trace.event) =
  let open Json in
  match ev with
  | Trace.Span s ->
      Obj
        [
          ("ph", String "X");
          ("pid", Int 0);
          ("tid", Int s.Trace.tid);
          ("ts", Float (us epoch s.Trace.start));
          ("dur", Float ((s.Trace.stop -. s.Trace.start) *. 1e6));
          ("name", String s.Trace.name);
          ("cat", String (span_cat s.Trace.cat));
          ( "args",
            Obj
              (s.Trace.args
              @ [
                  ("gc_minor_words", Float s.Trace.gc_minor_words);
                  ("gc_major_words", Float s.Trace.gc_major_words);
                ]) );
        ]
  | Trace.Instant m ->
      Obj
        [
          ("ph", String "i");
          ("s", String "t");
          ("pid", Int 0);
          ("tid", Int m.Trace.m_tid);
          ("ts", Float (us epoch m.Trace.m_at));
          ("name", String m.Trace.m_name);
          ("cat", String (span_cat m.Trace.m_cat));
          ("args", Obj m.Trace.m_args);
        ]
  | Trace.Counter c ->
      Obj
        [
          ("ph", String "C");
          ("pid", Int 0);
          ("tid", Int c.Trace.c_tid);
          ("ts", Float (us epoch c.Trace.c_at));
          ("name", String c.Trace.c_name);
          ("args", Obj [ ("value", Float c.Trace.c_value) ]);
        ]

let event_ts = function
  | Trace.Span s -> s.Trace.start
  | Trace.Instant m -> m.Trace.m_at
  | Trace.Counter c -> c.Trace.c_at

let chrome_json t =
  let epoch = Trace.epoch t in
  let evs =
    List.stable_sort
      (fun a b -> compare (event_ts a) (event_ts b))
      (Trace.events t)
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.String "ms");
      ("traceEvents", Json.List (List.map (chrome_event epoch) evs));
    ]

let chrome t = Json.to_string (chrome_json t)

let write_chrome oc t =
  output_string oc (chrome t);
  output_char oc '\n'

(* ------------------------------------------------------------------ *)
(* JSON-lines: one self-describing object per event, in close order —
   the format for downstream log processing. *)

let jsonl_event epoch (ev : Trace.event) =
  let open Json in
  match ev with
  | Trace.Span s ->
      Obj
        [
          ("kind", String "span");
          ("name", String s.Trace.name);
          ("cat", String (span_cat s.Trace.cat));
          ("tid", Int s.Trace.tid);
          ("start_s", Float (s.Trace.start -. epoch));
          ("dur_s", Float (s.Trace.stop -. s.Trace.start));
          ("gc_minor_words", Float s.Trace.gc_minor_words);
          ("gc_major_words", Float s.Trace.gc_major_words);
          ("args", Obj s.Trace.args);
        ]
  | Trace.Instant m ->
      Obj
        [
          ("kind", String "instant");
          ("name", String m.Trace.m_name);
          ("cat", String (span_cat m.Trace.m_cat));
          ("tid", Int m.Trace.m_tid);
          ("at_s", Float (m.Trace.m_at -. epoch));
          ("args", Obj m.Trace.m_args);
        ]
  | Trace.Counter c ->
      Obj
        [
          ("kind", String "counter");
          ("name", String c.Trace.c_name);
          ("tid", Int c.Trace.c_tid);
          ("at_s", Float (c.Trace.c_at -. epoch));
          ("value", Float c.Trace.c_value);
        ]

let jsonl t =
  let buf = Buffer.create 4096 in
  let epoch = Trace.epoch t in
  List.iter
    (fun ev ->
      Json.to_buffer buf (jsonl_event epoch ev);
      Buffer.add_char buf '\n')
    (Trace.events t);
  Buffer.contents buf

let write_jsonl oc t = output_string oc (jsonl t)

let write_file path t =
  Out_channel.with_open_text path (fun oc ->
      if Filename.check_suffix path ".jsonl" then write_jsonl oc t
      else write_chrome oc t)

(* ------------------------------------------------------------------ *)
(* Human text summary: per-name aggregates, the top slowest individual
   spans, and Gc totals over top-level spans (counting nested spans too
   would double-charge the allocation of their children). *)

type agg = { mutable count : int; mutable total : float; mutable max : float }

let summary ?(top = 5) t =
  let buf = Buffer.create 1024 in
  let evs = Trace.events t in
  let spans = Trace.spans t in
  let instants =
    List.length (List.filter (function Trace.Instant _ -> true | _ -> false) evs)
  in
  let counters =
    List.length (List.filter (function Trace.Counter _ -> true | _ -> false) evs)
  in
  let tids = List.sort_uniq compare (List.map (fun s -> s.Trace.tid) spans) in
  let wall =
    match spans with
    | [] -> 0.
    | s0 :: _ ->
        let lo =
          List.fold_left
            (fun acc s -> Float.min acc s.Trace.start)
            s0.Trace.start spans
        in
        let hi =
          List.fold_left
            (fun acc s -> Float.max acc s.Trace.stop)
            s0.Trace.stop spans
        in
        hi -. lo
  in
  Buffer.add_string buf "== ovo trace profile ==\n";
  Buffer.add_string buf
    (Printf.sprintf
       "wall %.4f s over %d spans, %d instants, %d counters, %d domain(s)\n"
       wall (List.length spans) instants counters (List.length tids));
  (* per-name aggregates *)
  let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let dur = s.Trace.stop -. s.Trace.start in
      let a =
        match Hashtbl.find_opt aggs s.Trace.name with
        | Some a -> a
        | None ->
            let a = { count = 0; total = 0.; max = 0. } in
            Hashtbl.add aggs s.Trace.name a;
            a
      in
      a.count <- a.count + 1;
      a.total <- a.total +. dur;
      a.max <- Float.max a.max dur)
    spans;
  let rows = Hashtbl.fold (fun name a acc -> (name, a) :: acc) aggs [] in
  let rows = List.sort (fun (_, a) (_, b) -> compare b.total a.total) rows in
  if rows <> [] then begin
    Buffer.add_string buf "per-span aggregate (by name, slowest total first):\n";
    Buffer.add_string buf
      (Printf.sprintf "  %-36s %6s %12s %12s %12s\n" "name" "count" "total s"
         "mean s" "max s");
    List.iter
      (fun (name, a) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-36s %6d %12.6f %12.6f %12.6f\n" name a.count
             a.total
             (a.total /. float_of_int a.count)
             a.max))
      rows
  end;
  (* top slowest individual spans *)
  let slowest =
    List.sort
      (fun a b ->
        compare (b.Trace.stop -. b.Trace.start) (a.Trace.stop -. a.Trace.start))
      spans
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: xs -> x :: take (n - 1) xs
  in
  let slowest = take top slowest in
  if slowest <> [] then begin
    Buffer.add_string buf (Printf.sprintf "top-%d slowest spans:\n" top);
    List.iter
      (fun s ->
        Buffer.add_string buf
          (Printf.sprintf "  %10.6f s  %-30s [%s] %s\n"
             (s.Trace.stop -. s.Trace.start)
             s.Trace.name (span_cat s.Trace.cat)
             (match s.Trace.args with
             | [] -> ""
             | args -> Json.to_string (Json.Obj args))))
      slowest
  end;
  (* Gc totals: spans on one domain are properly nested, so a sweep in
     start order finds the outermost ones — a span is top-level iff it
     starts at or after the stop of the previous top-level span *)
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let xs = try Hashtbl.find by_tid s.Trace.tid with Not_found -> [] in
      Hashtbl.replace by_tid s.Trace.tid (s :: xs))
    spans;
  let minor = ref 0. and major = ref 0. in
  Hashtbl.iter
    (fun _ xs ->
      let xs = List.sort (fun a b -> compare a.Trace.start b.Trace.start) xs in
      let frontier = ref neg_infinity in
      List.iter
        (fun s ->
          if s.Trace.start >= !frontier then begin
            minor := !minor +. s.Trace.gc_minor_words;
            major := !major +. s.Trace.gc_major_words;
            frontier := s.Trace.stop
          end)
        xs)
    by_tid;
  Buffer.add_string buf
    (Printf.sprintf "Gc (top-level spans): minor %.3e words, major %.3e words\n"
       !minor !major);
  Buffer.contents buf
