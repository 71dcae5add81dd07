(* The packed table and the memory budget: extent encode/decode, the
   table's byte accounting, and the admission estimate — its table term
   is what an unbounded sweep holds at its peak, its arena term the
   sweep's two layer buffers, and every quantum composition sharing one
   budget stays within a full sweep's table. *)

module Mb = Ovo_core.Membudget
module Lp = Ovo_core.Layer_pack
module Vs = Ovo_core.Varset
module Fs = Ovo_core.Fs
module Tt = Ovo_boolfun.Truthtable
module O = Ovo_quantum.Opt_obdd

(* --- Layer_pack ------------------------------------------------------- *)

module X = Lp.Extent

let vs_of = List.fold_left (fun s i -> Vs.add i s) Vs.empty
let bits s = Vs.fold (fun i acc -> acc lor (1 lsl i)) s 0

(* A layer as one extent — the shape of a checkpoint record — with every
   entry set from [f ksub], visited in rank order.  Also returns the
   subset of each rank. *)
let whole_layer j_set ~k f =
  let m = Vs.cardinal j_set in
  let total = Lp.binomial m k and pascal = Lp.pascal_table ~m ~k in
  let x = X.create ~j_set ~k ~total in
  Vs.iter_subsets_of ~size:k j_set (fun ksub ->
      let cost, choice = f ksub in
      X.set x ~rank:(Lp.rank_in ~pascal ~j_set ksub) ~cost ~choice);
  (x, Lp.unrank_in ~pascal ~j_set ~k)

let same_extent msg a b =
  Helpers.check_int (msg ^ ": total") (X.total a) (X.total b);
  Helpers.check_int (msg ^ ": present") (X.present a) (X.present b);
  for r = 0 to X.total a - 1 do
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
        let x' = X.decode (X.encode x) in
        same_extent "decoded" x x';
        Helpers.check_int "size" (X.size_bytes x) (X.size_bytes x'));
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
        let packed = X.encode x in
        Helpers.check_bool "packed at most half of dense" true
          (2 * String.length packed <= X.size_bytes x);
        same_extent "decoded" x (X.decode packed));
    Helpers.case "decode rejects damage" (fun () ->
        let x, _ = whole_layer (vs_of [ 0; 1; 2 ]) ~k:1 (fun _ -> (1, 0)) in
        let fails s =
          match X.decode s with exception Failure _ -> true | _ -> false
        in
        let s = X.encode x in
        Helpers.check_bool "truncated" true
          (fails (String.sub s 0 (String.length s - 1)));
        Helpers.check_bool "trailing garbage" true (fails (s ^ "!"));
        let bad_version = Bytes.of_string s in
        Bytes.set bad_version 0 '\xfe';
        Helpers.check_bool "bad version" true
          (fails (Bytes.to_string bad_version));
        Helpers.check_bool "short header" true (fails "xy");
        (* a partial extent has no complete range to decode *)
        let partial = X.create ~j_set:(vs_of [ 0; 1; 2 ]) ~k:1 ~total:3 in
        X.set partial ~rank:1 ~cost:4 ~choice:1;
        Helpers.check_bool "incomplete" true (fails (X.encode partial));
        (* the header's rank range must span the layer: lo = 0 and
           len = total *)
        let with_u32 off v =
          let b = Bytes.of_string (X.encode x) in
          Bytes.set_int32_le b off (Int32.of_int v);
          Bytes.to_string b
        in
        Helpers.check_bool "lo > 0" true (fails (with_u32 14 1));
        Helpers.check_bool "len < total" true (fails (with_u32 18 2)));
    Helpers.case "unset entry is an error" (fun () ->
        let x = X.create ~j_set:(vs_of [ 0; 1 ]) ~k:1 ~total:2 in
        Helpers.check_bool "unset" true
          (match X.cost x ~rank:0 with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

(* --- extents ----------------------------------------------------------- *)

(* A deterministic pseudo-random complete extent: a layer with every
   entry set, costs of mixed magnitude. *)
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
  let x = X.create ~j_set ~k ~total in
  for r = 0 to total - 1 do
    X.set x ~rank:r
      ~cost:(Random.State.full_int st (1 lsl (1 + Random.State.int st 40)))
      ~choice:(Random.State.int st 256)
  done;
  x

let extent_roundtrip_prop =
  QCheck.Test.make ~name:"extent encoding roundtrips" ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Helpers.rng seed in
      let x = random_extent st in
      same_extent "decoded" x (X.decode (X.encode x));
      true)

let extent_tests =
  [
    Helpers.case "global-rank set/get and bounds" (fun () ->
        let j_set = vs_of [ 0; 1; 2; 3; 4; 5 ] in
        let total = Lp.binomial 6 3 in
        let x = X.create ~j_set ~k:3 ~total in
        X.set x ~rank:0 ~cost:42 ~choice:1;
        X.set x ~rank:19 ~cost:7 ~choice:2;
        Helpers.check_int "cost first" 42 (X.cost x ~rank:0);
        Helpers.check_int "cost last" 7 (X.cost x ~rank:19);
        Helpers.check_int "present" 2 (X.present x);
        Helpers.check_bool "unset mem" false (X.mem x ~rank:6);
        List.iter
          (fun rank ->
            Helpers.check_bool "out of range" true
              (match X.set x ~rank ~cost:1 ~choice:0 with
              | exception Invalid_argument _ -> true
              | _ -> false))
          [ -1; 20 ];
        Helpers.check_int "size" (30 + (20 * 9)) (X.size_bytes x));
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
          [ ""; "abc"; "0"; "-5"; "1T"; "k" ];
        (* multiples past max_int are refused, naming the value, instead
           of wrapping to 1 GiB or to 0 *)
        List.iter
          (fun s ->
            match Mb.parse_bytes s with
            | Ok v -> Alcotest.failf "%s parsed as %d" s v
            | Error m ->
                Helpers.check_bool ("names " ^ s) true
                  (Helpers.contains m s))
          [ "17179869185G"; "8589934592G" ]);
    Helpers.case "create rejects bad budgets" (fun () ->
        Helpers.check_bool "zero" true
          (match Mb.create ~budget_bytes:0 () with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Helpers.case "unbounded accounting still tracks peaks" (fun () ->
        let n = 6 in
        let tt = Tt.random (Helpers.rng 11) n in
        let mb = Mb.unbounded () in
        ignore (Fs.run ~membudget:mb tt);
        (* the widest layer: C(n, n/2) packed entries plus one extent
           header *)
        let expect = (Lp.binomial n (n / 2) * 9) + Lp.extent_header_bytes in
        Helpers.check_int "peak layer" expect (Mb.peak_layer_bytes mb);
        Helpers.check_bool "resident peak >= layer peak" true
          (Mb.peak_resident_bytes mb >= Mb.peak_layer_bytes mb));
    Helpers.case "the estimate's terms are the sweep's table and arenas"
      (fun () ->
        for n = 1 to 10 do
          let mb = Mb.unbounded () in
          ignore (Fs.run ~membudget:mb (Tt.random (Helpers.rng (40 + n)) n));
          Helpers.check_int
            (Printf.sprintf "table term, n = %d" n)
            (Mb.peak_resident_bytes mb) (Mb.table_bytes ~n);
          Helpers.check_int
            (Printf.sprintf "arena term, n = %d" n)
            (Ovo_core.Arena.bytes ~cells:(1 lsl n) ~m:n ~upto:n)
            (Mb.arena_bytes ~n);
          Helpers.check_int
            (Printf.sprintf "estimate, n = %d" n)
            (Mb.arena_bytes ~n + Mb.table_bytes ~n)
            (Mb.estimate ~n)
        done;
        Helpers.check_int "table, n = 8" 2535 (Mb.table_bytes ~n:8);
        Helpers.check_int "table, n = 10" 9507 (Mb.table_bytes ~n:10);
        Helpers.check_int "estimate, n = 10" 67107 (Mb.estimate ~n:10));
    Helpers.case "a sweep that raises hands its table back" (fun () ->
        (* cancelled after layer n/2: the layers it packed must leave the
           books, or the next solve on the same context would peak above
           one whole table *)
        let n = 8 in
        let tt = Tt.random (Helpers.rng 21) n in
        let mb = Mb.unbounded () in
        let cancel = Ovo_core.Cancel.make () in
        let on_layer (p : Ovo_core.Subset_dp.progress) =
          if p.p_layer = n / 2 then Ovo_core.Cancel.cancel cancel
        in
        (match Fs.run ~membudget:mb ~cancel ~on_layer tt with
        | exception Ovo_core.Cancel.Cancelled -> ()
        | _ -> Alcotest.fail "not cancelled");
        ignore (Fs.run ~membudget:mb tt);
        Helpers.check_int "peak" (Mb.table_bytes ~n) (Mb.peak_resident_bytes mb));
    Helpers.case "refusal names the estimate" (fun () ->
        Helpers.check_bool "fits" true
          (Mb.refusal ~n:10 ~limit:"x" 67107 = None);
        match Mb.refusal ~n:10 ~limit:"--mem-budget 60000 B" 60000 with
        | None -> Alcotest.fail "admitted"
        | Some m ->
            Helpers.check_bool m true
              (Helpers.contains m "67107 B"
              && Helpers.contains m "--mem-budget 60000 B"));
    Helpers.case "quantum compositions stay within fs's whole table"
      (fun () ->
        (* one budget is shared by every FS* sub-sweep of a composition;
           each sub-sweep releases its table, so the peak never exceeds
           what fs itself holds *)
        List.iter
          (fun (name, tt) ->
            let n = Tt.arity tt in
            let fs = Mb.unbounded () in
            ignore (Fs.run ~membudget:fs tt);
            List.iter
              (fun (label, sub) ->
                let mb = Mb.unbounded () in
                ignore
                  (O.minimize ~ctx:(O.make_ctx ~membudget:mb ()) sub
                     (Ovo_boolfun.Mtable.of_truthtable tt));
                Helpers.check_bool
                  (Printf.sprintf "%s %s: %d <= %d" name label
                     (Mb.peak_resident_bytes mb) (Mb.peak_resident_bytes fs))
                  true
                  (Mb.peak_resident_bytes mb <= Mb.peak_resident_bytes fs))
              [
                ("qdc", O.theorem10 ());
                ("tower:1", O.tower ~depth:1);
                ("tower:2", O.tower ~depth:2);
                ("simple", O.simple_split ());
              ];
            Helpers.check_int (name ^ ": fs holds the whole table")
              (Mb.table_bytes ~n) (Mb.peak_resident_bytes fs))
          (Ovo_boolfun.Families.catalogue ~max_arity:10));
  ]

(* --- budgeted ≡ unbounded --------------------------------------------- *)

(* A solve admitted under a budget (its estimate, the tightest one that
   admits it) runs as an unbudgeted one, and its context accounts the
   whole table under either engine. *)
let identical_prop name engine =
  QCheck.Test.make
    ~name:(Printf.sprintf "budget never changes the answer (%s)" name)
    ~count:60
    (Helpers.arb_truthtable ~lo:4 ~hi:7 ())
    (fun tt ->
      let n = Tt.arity tt in
      let plain = Fs.run ~engine tt in
      let mb = Mb.create ~budget_bytes:(Mb.estimate ~n) () in
      let budgeted = Fs.run ~engine ~membudget:mb tt in
      Mb.peak_resident_bytes mb = Mb.table_bytes ~n
      && budgeted.Fs.mincost = plain.Fs.mincost
      && budgeted.Fs.size = plain.Fs.size
      && budgeted.Fs.order = plain.Fs.order
      && budgeted.Fs.widths = plain.Fs.widths)

let props =
  [
    extent_roundtrip_prop;
    identical_prop "Seq" Ovo_core.Engine.Seq;
    identical_prop "Par" (Ovo_core.Engine.Par { domains = 3 });
  ]

let () =
  Alcotest.run "membudget"
    [
      ("layer_pack", pack_tests);
      ("extents", extent_tests);
      ("membudget", budget_tests);
      ("props", Helpers.qtests props);
    ]
