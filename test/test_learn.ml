(* ovo.learn: the feature extractor is permutation-equivariant by
   construction (exact float equality, not approximate — every feature
   is a count ratio), the scorer always emits a valid permutation and
   its seed never changes the exact DP's answer, the dataset factory is
   byte-deterministic by spec (also through a resume), and the gap
   harness rejects orderers that do not return permutations. *)

module Tt = Ovo_boolfun.Truthtable
module Mt = Ovo_boolfun.Mtable
module Fs = Ovo_core.Fs
module B = Ovo_core.Bound
module Feat = Ovo_learn.Features
module Scorer = Ovo_learn.Scorer
module D = Ovo_learn.Dataset
module G = Ovo_learn.Gap

let random_perm rng n =
  let p = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

let is_perm a =
  let n = Array.length a in
  let seen = Array.make n false in
  Array.for_all
    (fun v -> v >= 0 && v < n && not seen.(v) && (seen.(v) <- true; true))
    a

(* --- features ---------------------------------------------------------- *)

let equivariance_prop =
  QCheck.Test.make
    ~name:"features are permutation-equivariant (exact floats)" ~count:200
    QCheck.(
      pair (Helpers.arb_truthtable ~lo:1 ~hi:6 ()) (int_range 0 10000))
    (fun (tt, salt) ->
      let n = Tt.arity tt in
      let perm = random_perm (Helpers.rng salt) n in
      Feat.equal
        (Feat.of_truthtable (Tt.permute_vars tt perm))
        (Feat.permute (Feat.of_truthtable tt) perm))

(* The semantic features straight from their definitions, one
   assignment at a time. *)
let per_bit_features tt =
  let n = Tt.arity tt in
  let size = 1 lsl n in
  let fsize = float_of_int size in
  let flip code j = Tt.eval tt code <> Tt.eval tt (code lxor (1 lsl j)) in
  let influence =
    Array.init n (fun j ->
        let flips = ref 0 in
        for code = 0 to size - 1 do
          if flip code j then incr flips
        done;
        float_of_int !flips /. fsize)
  in
  let cosens = Array.make_matrix n n 0. and walsh = Array.make_matrix n n 0. in
  for j = 0 to n - 1 do
    for k = j + 1 to n - 1 do
      let both = ref 0 and agree = ref 0 in
      for code = 0 to size - 1 do
        if flip code j && flip code k then incr both;
        let chi =
          Bool.to_int (Tt.eval tt code)
          lxor ((code lsr j) land 1)
          lxor ((code lsr k) land 1)
        in
        if chi = 0 then incr agree
      done;
      let c = float_of_int !both /. fsize in
      cosens.(j).(k) <- c;
      cosens.(k).(j) <- c;
      let w = Float.abs (float_of_int ((2 * !agree) - size) /. fsize) in
      walsh.(j).(k) <- w;
      walsh.(k).(j) <- w
    done
  done;
  let spectral =
    Array.init n (fun j ->
        if n <= 1 then 0.
        else Array.fold_left ( +. ) 0. walsh.(j) /. float_of_int (n - 1))
  in
  let polarity =
    Array.init n (fun j ->
        let f0, f1 = Tt.cofactors tt j in
        float_of_int (Tt.count_ones f1 - Tt.count_ones f0)
        /. float_of_int (size / 2))
  in
  let occurrence =
    Array.init n (fun j -> if Tt.depends_on tt j then 1. else 0.)
  in
  (influence, polarity, spectral, occurrence, cosens)

let features_reference_prop =
  QCheck.Test.make ~name:"word-parallel features equal the per-bit counts"
    ~count:60
    (Helpers.arb_truthtable ~lo:1 ~hi:10 ())
    (fun tt ->
      let f = Feat.of_truthtable tt in
      Feat.(f.influence, f.polarity, f.spectral, f.occurrence, f.cosens)
      = per_bit_features tt)

let features_json_prop =
  QCheck.Test.make ~name:"features survive a JSON round-trip" ~count:100
    (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
    (fun tt ->
      let f = Feat.of_truthtable tt in
      match Feat.of_json (Feat.to_json f) with
      | Ok f' -> Feat.equal f f'
      | Error _ -> false)

(* --- scorer ------------------------------------------------------------ *)

let scorer_perm_prop =
  QCheck.Test.make ~name:"the scored order is always a valid permutation"
    ~count:200
    (Helpers.arb_truthtable ~lo:1 ~hi:7 ())
    (fun tt -> is_perm (Scorer.order tt))

let scorer_cost_prop =
  QCheck.Test.make ~name:"the scored cost is achievable (>= the optimum)"
    ~count:100
    (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
    (fun tt ->
      (Scorer.run tt).Ovo_ordering.Chain.mincost >= (Fs.run tt).Fs.mincost)

let scorer_seed_prop =
  QCheck.Test.make
    ~name:"a scorer-only seed never changes the DP's answer" ~count:80
    (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
    (fun tt ->
      let plain = Fs.run tt in
      let pruned = Fs.run ~prune:(Scorer.bound tt) tt in
      plain.Fs.mincost = pruned.Fs.mincost
      && plain.Fs.size = pruned.Fs.size
      && plain.Fs.order = pruned.Fs.order
      && plain.Fs.widths = pruned.Fs.widths)

let seeded_bound_prop =
  QCheck.Test.make
    ~name:"the scored+sifting seed never changes the DP's answer" ~count:80
    (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
    (fun tt ->
      let plain = Fs.run tt in
      let b = Scorer.seeded_bound tt in
      let pruned = Fs.run ~prune:b tt in
      B.incumbent b >= plain.Fs.mincost
      && plain.Fs.mincost = pruned.Fs.mincost
      && plain.Fs.order = pruned.Fs.order)

let weights_tests =
  [
    Helpers.case "default weights survive save/load" (fun () ->
        let path = Filename.temp_file "ovo-learn-model" ".json" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Scorer.Weights.save path Scorer.Weights.default;
            match Scorer.Weights.load path with
            | Ok w ->
                Helpers.check_bool "roundtrip" true (w = Scorer.Weights.default)
            | Error m -> Alcotest.failf "load: %s" m));
    Helpers.case "absent fields keep their defaults" (fun () ->
        match
          Scorer.Weights.of_json
            (Ovo_obs.Json.Obj
               [
                 ("version", Ovo_obs.Json.Int 1);
                 ( "weights",
                   Ovo_obs.Json.Obj [ ("influence", Ovo_obs.Json.Float 2.0) ]
                 );
               ])
        with
        | Ok w ->
            Helpers.check_bool "influence" true (w.Scorer.Weights.influence = 2.0);
            Helpers.check_bool "cosens untouched" true
              (w.Scorer.Weights.cosens = Scorer.Weights.default.Scorer.Weights.cosens)
        | Error m -> Alcotest.failf "of_json: %s" m);
    Helpers.case "a non-numeric weight is an error" (fun () ->
        Helpers.check_bool "rejected" true
          (Result.is_error
             (Scorer.Weights.of_json
                (Ovo_obs.Json.Obj
                   [
                     ( "weights",
                       Ovo_obs.Json.Obj
                         [ ("influence", Ovo_obs.Json.String "big") ] );
                   ]))));
    Helpers.case "a decay outside [0,1] is an error" (fun () ->
        Helpers.check_bool "rejected" true
          (Result.is_error
             (Scorer.Weights.of_json
                (Ovo_obs.Json.Obj [ ("decay", Ovo_obs.Json.Float 1.5) ]))));
    Helpers.case "a missing model file is an error, not an exception"
      (fun () ->
        Helpers.check_bool "rejected" true
          (Result.is_error (Scorer.Weights.load "/nonexistent/model.json")));
    Helpers.case "a row and a model in the old format load" (fun () ->
        (* written when features carried zero adjacency and proximity
           matrices and models weighed them: both keys are ignored *)
        let old_row =
          {|{"name":"achilles-2","n":4,"digest":"4:b8758e1859f841fb","table":"0001000100011111",
              "opt_order":[3,2,1,0],"opt_cost":4,"worst_cost":6,"scored_cost":4,"influence_cost":4,"sifting_cost":4,"random_cost":6,
              "features":{"n":4,"influence":[0.375,0.375,0.375,0.375],
              "polarity":[0.375,0.375,0.375,0.375],
              "spectral":[0.20833333333333334,0.20833333333333334,0.20833333333333334,0.20833333333333334],"occurrence":[1,1,1,1],
              "cosens":[[0,0.1875,0.0625,0.0625],[0.1875,0,0.0625,0.0625],[0.0625,0.0625,0,0.1875],[0.0625,0.0625,0.1875,0]],
              "adjacency":[[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]],
              "proximity":[[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]}}|}
        in
        (match Result.bind (Ovo_obs.Json.parse old_row) D.row_of_json with
        | Ok r ->
            Helpers.check_bool "features" true
              (Feat.equal r.D.features
                 (Feat.of_truthtable (Tt.of_string r.D.table)));
            Helpers.check_bool "written without the two keys" true
              (Ovo_obs.Json.member "adjacency" (Feat.to_json r.D.features)
              = None)
        | Error m -> Alcotest.failf "row: %s" m);
        match
          Result.bind
            (Ovo_obs.Json.parse
               {|{"version":1,"weights":{"influence":2.0,"adjacency":100,"proximity":-100},"decay":0.5}|})
            Scorer.Weights.of_json
        with
        | Ok w ->
            Helpers.check_bool "model" true
              (w = { Scorer.Weights.default with influence = 2.0 })
        | Error m -> Alcotest.failf "model: %s" m);
  ]

(* --- dataset ----------------------------------------------------------- *)

let small_spec =
  {
    D.families = Some [ "hwb-6"; "mux-2"; "parity-6" ];
    n_max = 6;
    random = 2;
    seed = 1987;
    kind = Ovo_core.Compact.Bdd;
  }

let dataset_determinism_prop =
  QCheck.Test.make
    ~name:"the corpus is byte-identical for a repeated spec" ~count:4
    QCheck.(int_range 0 1000)
    (fun seed ->
      let spec = { small_spec with D.seed; random = 1 } in
      D.to_ndjson (D.generate spec) = D.to_ndjson (D.generate spec))

let dataset_tests =
  [
    Helpers.case "rows survive a JSON round-trip byte for byte" (fun () ->
        List.iter
          (fun row ->
            let j = D.row_to_json row in
            match D.row_of_json j with
            | Error m -> Alcotest.failf "row_of_json: %s" m
            | Ok row' ->
                Helpers.check_bool "bytes" true
                  (Ovo_obs.Json.to_string (D.row_to_json row')
                  = Ovo_obs.Json.to_string j))
          (D.generate small_spec));
    Helpers.case "the label really is the optimum" (fun () ->
        List.iter
          (fun (row : D.row) ->
            let tt = Tt.of_string row.D.table in
            Helpers.check_int row.D.name (Fs.run tt).Fs.mincost
              row.D.costs.D.c_opt;
            Helpers.check_bool "worst >= opt" true
              (row.D.costs.D.c_worst >= row.D.costs.D.c_opt);
            Helpers.check_bool "opt_order is a permutation" true
              (is_perm row.D.opt_order))
          (D.generate small_spec));
    Helpers.case "a resumed generation is byte-identical" (fun () ->
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "ovo-test-learn-%d" (Unix.getpid ()))
        in
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        let cleanup () =
          Array.iter
            (fun f -> Sys.remove (Filename.concat dir f))
            (Sys.readdir dir);
          Unix.rmdir dir
        in
        Fun.protect ~finally:cleanup (fun () ->
            let plain = D.to_ndjson (D.generate small_spec) in
            let first = D.to_ndjson (D.generate ~store:dir small_spec) in
            let resumed = D.to_ndjson (D.generate ~store:dir small_spec) in
            Helpers.check_bool "store run" true (first = plain);
            Helpers.check_bool "resumed run" true (resumed = plain)));
    Helpers.case "an unknown family is rejected" (fun () ->
        Helpers.check_bool "rejected" true
          (match
             D.tasks { small_spec with D.families = Some [ "no-such" ] }
           with
          | exception Failure _ -> true
          | _ -> false));
  ]

(* --- gap --------------------------------------------------------------- *)

let gap_tests =
  [
    Helpers.case "every orderer's gap is >= 1 and sifting's rows all count"
      (fun () ->
        let rows = D.generate small_spec in
        let stats = G.evaluate (G.default_orderers ()) rows in
        List.iter
          (fun (s : G.stat) ->
            Helpers.check_int (s.G.s_name ^ " rows") (List.length rows)
              s.G.s_rows;
            Helpers.check_bool (s.G.s_name ^ " mean >= 1") true
              (s.G.s_mean_gap >= 1.0);
            Helpers.check_bool (s.G.s_name ^ " max >= mean") true
              (s.G.s_max_gap >= s.G.s_mean_gap -. 1e-9))
          stats);
    Helpers.case "a non-permutation orderer is rejected" (fun () ->
        let rows = D.generate small_spec in
        let broken =
          { G.o_name = "broken"; o_order = (fun tt -> Array.make (Tt.arity tt) 0) }
        in
        Helpers.check_bool "rejected" true
          (match G.evaluate [ broken ] rows with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

let props =
  [
    equivariance_prop;
    features_reference_prop;
    features_json_prop;
    scorer_perm_prop;
    scorer_cost_prop;
    scorer_seed_prop;
    seeded_bound_prop;
    dataset_determinism_prop;
  ]

let () =
  Alcotest.run "learn"
    [
      ("weights", weights_tests);
      ("dataset", dataset_tests);
      ("gap", gap_tests);
      ("props", Helpers.qtests props);
    ]
