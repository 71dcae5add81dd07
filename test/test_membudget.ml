(* The memory-budgeted out-of-core DP: packed extent encode/decode, the
   extent split, byte accounting (transient-once spill charging, closed
   form), spill/reload through Ovo_store.Spill in both segment formats,
   and the headline guarantee — a budgeted run is bit-identical to the
   unbounded one under both engines even when a single layer exceeds the
   whole budget, and a corrupted spill segment is a clean [Failure],
   never a wrong answer. *)

module Mb = Ovo_core.Membudget
module Lp = Ovo_core.Layer_pack
module Vs = Ovo_core.Varset
module Fs = Ovo_core.Fs
module Tt = Ovo_boolfun.Truthtable
module Spill = Ovo_store.Spill

let tmpdir () =
  let d = Filename.temp_file "ovo-mem-test" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let src_str = function
  | Lp.S_string s -> s
  | Lp.S_big b -> String.init (Bigarray.Array1.dim b) (Bigarray.Array1.get b)

(* A sink backed by a hashtable — enough to exercise the spill protocol
   without touching the filesystem. *)
let mem_sink () =
  let store = Hashtbl.create 8 in
  ( store,
    {
      Mb.spill = (fun ~k ~ext payload -> Hashtbl.replace store (k, ext) payload);
      reload =
        (fun ~k ~ext ->
          match Hashtbl.find_opt store (k, ext) with
          | Some p -> Lp.S_string p
          | None -> failwith "mem_sink: no such extent");
    } )

(* --- Layer_pack ------------------------------------------------------- *)

module X = Lp.Extent

let vs_of = List.fold_left (fun s i -> Vs.add i s) Vs.empty
let bits s = Vs.fold (fun i acc -> acc lor (1 lsl i)) s 0

(* A whole layer as one extent ([lo = 0], [len = C(m,k)]) — the shape of
   a checkpoint record — with every entry set from [f ksub], visited in
   rank order.  Also returns the subset of each rank. *)
let whole_layer j_set ~k f =
  let m = Vs.cardinal j_set in
  let total = Lp.binomial m k and pascal = Lp.pascal_table ~m ~k in
  let x = X.create ~j_set ~k ~total ~lo:0 ~len:total in
  Vs.iter_subsets_of ~size:k j_set (fun ksub ->
      let cost, choice = f ksub in
      X.set x ~rank:(Lp.rank_in ~pascal ~j_set ksub) ~cost ~choice);
  (x, Lp.unrank_in ~pascal ~j_set ~k)

let same_extent msg a b =
  Helpers.check_int (msg ^ ": lo") (X.lo a) (X.lo b);
  Helpers.check_int (msg ^ ": len") (X.len a) (X.len b);
  Helpers.check_int (msg ^ ": present") (X.present a) (X.present b);
  for r = X.lo a to X.lo a + X.len a - 1 do
    Helpers.check_bool (msg ^ ": mem") (X.mem a ~rank:r) (X.mem b ~rank:r);
    if X.mem a ~rank:r then begin
      Helpers.check_int (msg ^ ": cost") (X.cost a ~rank:r) (X.cost b ~rank:r);
      Helpers.check_int (msg ^ ": choice") (X.choice a ~rank:r)
        (X.choice b ~rank:r)
    end
  done

let pack_tests =
  [
    Helpers.case "binomial" (fun () ->
        Helpers.check_int "C(8,4)" 70 (Lp.binomial 8 4);
        Helpers.check_int "C(5,0)" 1 (Lp.binomial 5 0);
        Helpers.check_int "C(5,6)" 0 (Lp.binomial 5 6));
    Helpers.case "set/get over every subset" (fun () ->
        let j_set = vs_of [ 0; 2; 3; 5 ] in
        let k = 2 in
        let expect = Hashtbl.create 8 in
        let x, unrank =
          whole_layer j_set ~k (fun ksub ->
              let entry = (bits ksub * 3, bits ksub land 0x3f) in
              Hashtbl.replace expect ksub entry;
              entry)
        in
        Helpers.check_int "count" (Lp.binomial 4 2) (Hashtbl.length expect);
        Helpers.check_int "present" (Lp.binomial 4 2) (X.present x);
        for r = 0 to X.total x - 1 do
          let cost, choice = Hashtbl.find expect (unrank r) in
          Helpers.check_int "cost" cost (X.cost x ~rank:r);
          Helpers.check_int "choice" choice (X.choice x ~rank:r)
        done);
    Helpers.case "rank_in/unrank_in follow enumeration order, allocation-free"
      (fun () ->
        let j_set = vs_of [ 1; 2; 4; 6; 7; 9 ] in
        let pascal = Lp.pascal_table ~m:6 ~k:6 in
        for k = 0 to 6 do
          let r = ref 0 in
          Vs.iter_subsets_of ~size:k j_set (fun ksub ->
              Helpers.check_int "rank" !r (Lp.rank_in ~pascal ~j_set ksub);
              Helpers.check_int "unrank" ksub
                (Lp.unrank_in ~pascal ~j_set ~k !r);
              incr r)
        done;
        let ksub = vs_of [ 2; 6; 9 ] in
        let before = Gc.minor_words () in
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Lp.rank_in ~pascal ~j_set ksub));
          ignore (Sys.opaque_identity (Lp.unrank_in ~pascal ~j_set ~k:3 11))
        done;
        Helpers.check_int "minor words" 0
          (int_of_float (Gc.minor_words () -. before)));
    Helpers.case "iter visits rank order exactly once" (fun () ->
        let x, unrank =
          whole_layer (vs_of [ 1; 2; 4; 6 ]) ~k:3 (fun ksub -> (bits ksub, 0))
        in
        let seen = ref [] in
        X.iter x (fun ~rank ~cost ~choice:_ ->
            Helpers.check_int "cost matches subset" (bits (unrank rank)) cost;
            seen := rank :: !seen);
        Helpers.check_bool "rank order" true
          (List.rev !seen = List.init (Lp.binomial 4 3) Fun.id));
    Helpers.case "encode/decode roundtrip" (fun () ->
        let x, _ =
          whole_layer (vs_of [ 0; 1; 3; 7; 9 ]) ~k:2 (fun ksub ->
              (100 + bits ksub, 7))
        in
        List.iter
          (fun payload ->
            let x' = X.decode payload in
            same_extent "decoded" x x';
            Helpers.check_int "size" (X.size_bytes x) (X.size_bytes x'))
          [ X.encode x; X.encode_packed x; X.encode_raw x ]);
    Helpers.case "compressed whole layer beats dense and roundtrips"
      (fun () ->
        (* smooth cost ramp: the shape real DP tables have, where
           delta+varint wins big *)
        let r = ref 0 in
        let x, _ =
          whole_layer (vs_of [ 0; 1; 2; 3; 4; 5; 6; 7 ]) ~k:4 (fun ksub ->
              incr r;
              (999 + !r, bits ksub land 7))
        in
        let packed = X.encode_packed x in
        Helpers.check_bool "packed at most half of raw" true
          (2 * String.length packed <= String.length (X.encode_raw x));
        Helpers.check_bool "encode picks the smallest" true
          (X.encode x = packed);
        same_extent "decoded" x (X.decode packed));
    Helpers.case "decode rejects damage" (fun () ->
        let x, _ = whole_layer (vs_of [ 0; 1; 2 ]) ~k:1 (fun _ -> (1, 0)) in
        let fails s =
          match X.decode s with exception Failure _ -> true | _ -> false
        in
        List.iter
          (fun s ->
            Helpers.check_bool "truncated" true
              (fails (String.sub s 0 (String.length s - 1)));
            Helpers.check_bool "trailing garbage" true (fails (s ^ "!"));
            let bad_version = Bytes.of_string s in
            Bytes.set bad_version 0 '\xfe';
            Helpers.check_bool "bad version" true
              (fails (Bytes.to_string bad_version)))
          [ X.encode_packed x; X.encode_raw x ];
        Helpers.check_bool "short header" true (fails "xy");
        (* a partial extent has no complete range to decode *)
        let partial =
          X.create ~j_set:(vs_of [ 0; 1; 2 ]) ~k:1 ~total:3 ~lo:0 ~len:3
        in
        X.set partial ~rank:1 ~cost:4 ~choice:1;
        Helpers.check_bool "incomplete" true (fails (X.encode partial)));
    Helpers.case "unset entry is an error" (fun () ->
        let x = X.create ~j_set:(vs_of [ 0; 1 ]) ~k:1 ~total:2 ~lo:0 ~len:2 in
        Helpers.check_bool "unset" true
          (match X.cost x ~rank:0 with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

(* --- extents ----------------------------------------------------------- *)

(* A deterministic pseudo-random extent: a rank range of a layer with a
   random subset of entries set, costs of mixed magnitude. *)
let random_extent st =
  let m = 4 + Random.State.int st 5 in
  let j_set =
    let rec pick s =
      if Vs.cardinal s = m then s else pick (Vs.add (Random.State.int st 12) s)
    in
    pick Vs.empty
  in
  let k = 1 + Random.State.int st m in
  let total = Lp.binomial m k in
  let len = 1 + Random.State.int st total in
  let lo = Random.State.int st (total - len + 1) in
  let x = X.create ~j_set ~k ~total ~lo ~len in
  for r = lo to lo + len - 1 do
    if Random.State.int st 4 > 0 then
      X.set x ~rank:r
        ~cost:(Random.State.full_int st (1 lsl (1 + Random.State.int st 40)))
        ~choice:(Random.State.int st 256)
  done;
  x

let extent_roundtrip_prop =
  QCheck.Test.make ~name:"extent packed/raw encodings agree" ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Helpers.rng seed in
      let x = random_extent st in
      let dec payload =
        X.of_src (Lp.S_string payload) ~j_set:(X.j_set x) ~k:(X.k x)
          ~total:(X.total x) ~lo:(X.lo x) ~len:(X.len x)
      in
      same_extent "packed" x (dec (X.encode_packed x));
      same_extent "raw" x (dec (X.encode_raw x));
      String.length (X.encode x)
      <= min
           (String.length (X.encode_packed x))
           (String.length (X.encode_raw x)))

let extent_tests =
  [
    Helpers.case "global-rank set/get and bounds" (fun () ->
        let j_set = vs_of [ 0; 1; 2; 3; 4; 5 ] in
        let total = Lp.binomial 6 3 in
        let x = X.create ~j_set ~k:3 ~total ~lo:5 ~len:7 in
        X.set x ~rank:5 ~cost:42 ~choice:1;
        X.set x ~rank:11 ~cost:7 ~choice:2;
        Helpers.check_int "cost lo" 42 (X.cost x ~rank:5);
        Helpers.check_int "cost hi" 7 (X.cost x ~rank:11);
        Helpers.check_int "present" 2 (X.present x);
        Helpers.check_bool "unset mem" false (X.mem x ~rank:6);
        Helpers.check_bool "out of range" true
          (match X.set x ~rank:12 ~cost:1 ~choice:0 with
          | exception Invalid_argument _ -> true
          | _ -> false);
        Helpers.check_int "size" (30 + (7 * 9)) (X.size_bytes x));
    Helpers.case "whole-layer records serve extent reloads" (fun () ->
        (* the checkpoint story: a whole-layer record, packed or raw,
           contains any extent of that layer *)
        let j_set = vs_of [ 0; 1; 2; 3; 4; 5; 6 ] in
        let k = 3 in
        let whole, _ =
          whole_layer j_set ~k (fun ksub -> (500 + bits ksub, bits ksub land 3))
        in
        let total = Lp.binomial 7 3 in
        List.iter
          (fun payload ->
            let x =
              X.of_src (Lp.S_string payload) ~j_set ~k ~total ~lo:10 ~len:9
            in
            Helpers.check_int "len" 9 (X.len x);
            for r = 10 to 18 do
              Helpers.check_int "cost" (X.cost whole ~rank:r)
                (X.cost x ~rank:r);
              Helpers.check_int "choice" (X.choice whole ~rank:r)
                (X.choice x ~rank:r)
            done)
          [ X.encode_packed whole; X.encode_raw whole ]);
    Helpers.case "of_src rejects damage cleanly" (fun () ->
        let st = Helpers.rng 99 in
        let x = random_extent st in
        let j_set = X.j_set x and k = X.k x in
        let total = X.total x and lo = X.lo x and len = X.len x in
        let dec payload = X.of_src (Lp.S_string payload) ~j_set ~k ~total ~lo ~len in
        let fails payload =
          match dec payload with exception Failure _ -> true | _ -> false
        in
        let packed = X.encode_packed x in
        Helpers.check_bool "truncated stream" true
          (fails (String.sub packed 0 (String.length packed - 1)));
        Helpers.check_bool "truncated header" true
          (fails (String.sub packed 0 10));
        Helpers.check_bool "trailing garbage" true (fails (packed ^ "!"));
        (* same cardinality, different universe: the request is well
           formed but the payload belongs to another layer *)
        let other = Vs.add 13 (Vs.remove (Vs.min_elt j_set) j_set) in
        Helpers.check_bool "wrong layer" true
          (match
             X.of_src (Lp.S_string packed) ~j_set:other ~k ~total ~lo ~len
           with
          | exception Failure _ -> true
          | _ -> false);
        (* a payload that does not contain the requested range *)
        Helpers.check_bool "containment" true
          (match
             X.of_src (Lp.S_string packed) ~j_set ~k ~total ~lo
               ~len:(total - lo)
           with
          | exception Failure _ -> len < total - lo
          | _ -> len = total - lo));
    Helpers.case "mapped raw extents stay zero-copy and read-only" (fun () ->
        let j_set = vs_of [ 0; 1; 2; 3; 4 ] in
        let total = Lp.binomial 5 2 in
        let x = X.create ~j_set ~k:2 ~total ~lo:0 ~len:total in
        for r = 0 to total - 1 do
          X.set x ~rank:r ~cost:(r * r) ~choice:(r land 1)
        done;
        let raw = X.encode_raw x in
        let big =
          Bigarray.Array1.create Bigarray.char Bigarray.c_layout
            (String.length raw)
        in
        String.iteri (Bigarray.Array1.set big) raw;
        let x' = X.of_src (Lp.S_big big) ~j_set ~k:2 ~total ~lo:0 ~len:total in
        same_extent "mapped" x x';
        Helpers.check_bool "read-only" true
          (match X.set x' ~rank:0 ~cost:1 ~choice:0 with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

(* --- Membudget -------------------------------------------------------- *)

let budget_tests =
  [
    Helpers.case "parse_bytes units" (fun () ->
        let ok s = Result.get_ok (Mb.parse_bytes s) in
        Helpers.check_int "plain" 1024 (ok "1024");
        Helpers.check_int "k" 4096 (ok "4k");
        Helpers.check_int "K" 4096 (ok "4K");
        Helpers.check_int "M" (2 * 1024 * 1024) (ok "2M");
        Helpers.check_int "G" (1024 * 1024 * 1024) (ok "1g");
        List.iter
          (fun s ->
            Helpers.check_bool s true (Result.is_error (Mb.parse_bytes s)))
          [ ""; "abc"; "0"; "-5"; "1T"; "k" ]);
    Helpers.case "create rejects bad budgets" (fun () ->
        let _, sink = mem_sink () in
        Helpers.check_bool "zero" true
          (match Mb.create ~budget_bytes:0 ~sink () with
          | exception Invalid_argument _ -> true
          | _ -> false);
        Helpers.check_bool "no sink" true
          (match Mb.create ~budget_bytes:100 () with
          | exception Invalid_argument _ -> true
          | _ -> false);
        Helpers.check_bool "zero extent" true
          (match Mb.create ~extent_bytes:0 () with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Helpers.case "unbounded accounting still tracks peaks" (fun () ->
        let n = 6 in
        let tt = Tt.random (Helpers.rng 11) n in
        let mb = Mb.unbounded () in
        ignore (Fs.run ~membudget:mb tt);
        (* the widest layer: C(n, n/2) packed entries plus one extent
           header (the default extent swallows the whole layer) *)
        let expect = (Lp.binomial n (n / 2) * 9) + Lp.extent_header_bytes in
        Helpers.check_int "peak layer" expect (Mb.peak_layer_bytes mb);
        Helpers.check_int "no spills" 0 (Mb.layers_spilled mb);
        Helpers.check_bool "ratio is 1 before any spill" true
          (Mb.compression_ratio mb = 1.0);
        Helpers.check_bool "resident peak >= layer peak" true
          (Mb.peak_resident_bytes mb >= Mb.peak_layer_bytes mb));
    Helpers.case "budgeted run spills and balances the books" (fun () ->
        let n = 7 in
        let tt = Tt.random (Helpers.rng 12) n in
        let unb = Mb.unbounded () in
        ignore (Fs.run ~membudget:unb tt);
        let budget = Mb.peak_layer_bytes unb / 2 in
        let _, sink = mem_sink () in
        let mb = Mb.create ~budget_bytes:budget ~sink () in
        ignore (Fs.run ~membudget:mb tt);
        Helpers.check_bool "spilled" true (Mb.layers_spilled mb > 0);
        Helpers.check_bool "extents counted" true
          (Mb.extents_spilled mb >= Mb.layers_spilled mb);
        Helpers.check_bool "compression never inflates" true
          (Mb.raw_bytes_spilled mb >= Mb.bytes_spilled mb);
        Helpers.check_bool "ratio >= 1" true (Mb.compression_ratio mb >= 1.0);
        Helpers.check_bool "reloaded" true (Mb.reloads mb > 0));
    Helpers.case "transient spill charge is counted once (closed form)"
      (fun () ->
        (* budget 1 with whole-layer extents: every layer is packed,
           charged, and immediately evicted.  If eviction charged the
           dense extent and its encoded payload together the peak would
           exceed one extent; charging the transient once pins the peak
           at exactly the largest extent. *)
        let n = 6 in
        let tt = Tt.random (Helpers.rng 16) n in
        let _, sink = mem_sink () in
        let mb = Mb.create ~budget_bytes:1 ~sink () in
        ignore (Fs.run ~membudget:mb tt);
        let expect = Lp.extent_header_bytes + (Lp.binomial n (n / 2) * 9) in
        Helpers.check_int "peak resident" expect (Mb.peak_resident_bytes mb));
    Helpers.case "a layer larger than the whole budget stays out of core"
      (fun () ->
        let n = 7 in
        let tt = Tt.random (Helpers.rng 15) n in
        let plain = Fs.run tt in
        let _, sink = mem_sink () in
        (* 5 entries per extent; the hump layer C(7,3)*9 = 315 B dense
           exceeds the whole 100 B budget *)
        let extent_bytes = 45 in
        let budget = 100 in
        let mb = Mb.create ~budget_bytes:budget ~extent_bytes ~sink () in
        let r = Fs.run ~membudget:mb tt in
        Helpers.check_int "mincost" plain.Fs.mincost r.Fs.mincost;
        Helpers.check_bool "order" true (r.Fs.order = plain.Fs.order);
        Helpers.check_bool "widths" true (r.Fs.widths = plain.Fs.widths);
        Helpers.check_bool "hump exceeds budget" true
          (Mb.peak_layer_bytes mb > budget);
        Helpers.check_bool "peak stays within budget + one extent" true
          (Mb.peak_resident_bytes mb
          <= budget + Lp.extent_header_bytes + extent_bytes);
        Helpers.check_bool "extent-granular spilling" true
          (Mb.extents_spilled mb > Mb.layers_spilled mb));
  ]

(* --- budgeted ≡ unbounded --------------------------------------------- *)

let identical_prop name engine =
  QCheck.Test.make
    ~name:(Printf.sprintf "budget never changes the answer (%s)" name)
    ~count:60
    (Helpers.arb_truthtable ~lo:4 ~hi:7 ())
    (fun tt ->
      let plain = Fs.run ~engine tt in
      (* a 1-byte budget with tiny extents forces every completed layer
         through the sink piecewise *)
      let _, sink = mem_sink () in
      let mb = Mb.create ~budget_bytes:1 ~extent_bytes:45 ~sink () in
      let tight = Fs.run ~engine ~membudget:mb tt in
      Mb.layers_spilled mb > 0
      && tight.Fs.mincost = plain.Fs.mincost
      && tight.Fs.size = plain.Fs.size
      && tight.Fs.order = plain.Fs.order
      && tight.Fs.widths = plain.Fs.widths)

let props =
  [
    extent_roundtrip_prop;
    identical_prop "Seq" Ovo_core.Engine.Seq;
    identical_prop "Par" (Ovo_core.Engine.Par { domains = 3 });
  ]

(* --- Spill (on disk) -------------------------------------------------- *)

let seg path k ext = Filename.concat path (Printf.sprintf "layer-%02d-%03d.seg" k ext)

let spill_tests =
  [
    Helpers.case "spill/reload roundtrip" (fun () ->
        let dir = tmpdir () in
        let sp = Spill.create dir in
        Spill.spill sp ~k:3 ~ext:0 "payload three";
        Spill.spill sp ~k:3 ~ext:0 "payload three, rewritten";
        Spill.spill sp ~k:3 ~ext:1 "payload three-one";
        Spill.spill sp ~k:11 ~ext:0 "payload eleven";
        Helpers.check_bool "k=3 ext=0" true
          (src_str (Spill.reload sp ~k:3 ~ext:0) = "payload three, rewritten");
        Helpers.check_bool "k=3 ext=1" true
          (src_str (Spill.reload sp ~k:3 ~ext:1) = "payload three-one");
        Helpers.check_bool "k=11" true
          (src_str (Spill.reload sp ~k:11 ~ext:0) = "payload eleven");
        Spill.remove sp;
        Helpers.check_bool "directory reaped" true (not (Sys.file_exists dir)));
    Helpers.case "remove is idempotent and leaves foreign files" (fun () ->
        let dir = tmpdir () in
        let sp = Spill.create dir in
        Spill.spill sp ~k:1 ~ext:0 "x";
        write_file (Filename.concat dir "keep.me") "foreign";
        Spill.remove sp;
        Spill.remove sp;
        Helpers.check_bool "dir kept" true (Sys.is_directory dir);
        Helpers.check_bool "foreign kept" true
          (Sys.file_exists (Filename.concat dir "keep.me")));
    Helpers.case "flipped byte fails the reload" (fun () ->
        let dir = tmpdir () in
        let sp = Spill.create dir in
        Spill.spill sp ~k:4 ~ext:2 "some extent bytes that matter";
        let path = seg dir 4 2 in
        let b = Bytes.of_string (read_file path) in
        let mid = Bytes.length b / 2 in
        Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x40));
        write_file path (Bytes.to_string b);
        Helpers.check_bool "Failure" true
          (match Spill.reload sp ~k:4 ~ext:2 with
          | exception Failure _ -> true
          | _ -> false);
        Spill.remove sp);
    Helpers.case "mmap segments roundtrip and verify" (fun () ->
        let dir = tmpdir () in
        let sp = Spill.create ~mmap:true dir in
        let payload = String.init 257 (fun i -> Char.chr (i * 7 land 0xff)) in
        Spill.spill sp ~k:5 ~ext:1 payload;
        (match Spill.reload sp ~k:5 ~ext:1 with
        | Lp.S_big b ->
            Helpers.check_int "mapped length" (String.length payload)
              (Bigarray.Array1.dim b);
            Helpers.check_bool "mapped bytes" true (src_str (Lp.S_big b) = payload)
        | Lp.S_string _ -> Alcotest.fail "mmap reload returned a string");
        (* flip one payload byte: the CRC must catch it *)
        let path = seg dir 5 1 in
        let b = Bytes.of_string (read_file path) in
        let last = Bytes.length b - 1 in
        Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x01));
        write_file path (Bytes.to_string b);
        Helpers.check_bool "corrupt mapped segment" true
          (match Spill.reload sp ~k:5 ~ext:1 with
          | exception Failure _ -> true
          | _ -> false);
        (* truncation *)
        write_file path "OVOSEG";
        Helpers.check_bool "truncated mapped segment" true
          (match Spill.reload sp ~k:5 ~ext:1 with
          | exception Failure _ -> true
          | _ -> false);
        Spill.remove sp);
    Helpers.case "corrupted segment aborts the DP cleanly" (fun () ->
        let n = 6 in
        let tt = Tt.random (Helpers.rng 13) n in
        let dir = tmpdir () in
        let sp = Spill.create dir in
        (* wrap the sink so the segment rots on disk between the forward
           sweep and the backtrack — the run must fail, not fabricate an
           ordering from damaged costs *)
        let real = Spill.sink sp in
        let sink =
          {
            real with
            Mb.reload =
              (fun ~k ~ext ->
                let path = seg dir k ext in
                let b = Bytes.of_string (read_file path) in
                let mid = Bytes.length b / 2 in
                Bytes.set b mid
                  (Char.chr (Char.code (Bytes.get b mid) lxor 0x01));
                write_file path (Bytes.to_string b);
                real.Mb.reload ~k ~ext);
          }
        in
        let mb = Mb.create ~budget_bytes:1 ~sink () in
        Helpers.check_bool "Failure, not a wrong answer" true
          (match Fs.run ~membudget:mb tt with
          | exception Failure _ -> true
          | _ -> false);
        Spill.remove sp);
    Helpers.case "on-disk spill reproduces the in-memory result" (fun () ->
        let n = 7 in
        let tt = Tt.random (Helpers.rng 14) n in
        let plain = Fs.run tt in
        let dir = tmpdir () in
        let sp = Spill.create dir in
        let mb = Mb.create ~budget_bytes:64 ~sink:(Spill.sink sp) () in
        let r = Fs.run ~membudget:mb tt in
        Spill.remove sp;
        Helpers.check_int "mincost" plain.Fs.mincost r.Fs.mincost;
        Helpers.check_bool "order" true (r.Fs.order = plain.Fs.order);
        Helpers.check_bool "widths" true (r.Fs.widths = plain.Fs.widths);
        Helpers.check_bool "spilled" true (Mb.layers_spilled mb > 0));
    Helpers.case "mmap spill reproduces the in-memory result" (fun () ->
        let n = 7 in
        let tt = Tt.random (Helpers.rng 17) n in
        let plain = Fs.run tt in
        let dir = tmpdir () in
        let sp = Spill.create ~mmap:true dir in
        let mb =
          Mb.create ~budget_bytes:64 ~extent_bytes:90 ~sink:(Spill.sink sp) ()
        in
        let r = Fs.run ~membudget:mb tt in
        Spill.remove sp;
        Helpers.check_int "mincost" plain.Fs.mincost r.Fs.mincost;
        Helpers.check_bool "order" true (r.Fs.order = plain.Fs.order);
        Helpers.check_bool "spilled extents" true (Mb.extents_spilled mb > 0));
  ]

let () =
  Alcotest.run "membudget"
    [
      ("layer_pack", pack_tests);
      ("extents", extent_tests);
      ("membudget", budget_tests);
      ("spill", spill_tests);
      ("props", Helpers.qtests props);
    ]
