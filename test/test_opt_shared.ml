module O = Ovo_quantum.Opt_obdd
module Q = Ovo_quantum
module S = Ovo_core.Shared
module T = Ovo_boolfun.Truthtable

let mtables = Array.map Ovo_boolfun.Mtable.of_truthtable

(* A quantum shared solve: the subroutine applied to the multi-rooted
   base, packaged as a shared result. *)
let quantum ~ctx sub tts =
  let base = S.initial Ovo_core.Compact.Bdd (mtables tts) in
  let st, cost = O.apply sub ctx base (Ovo_core.Compact.free base) in
  (S.of_state st, cost)

let exact tts = (S.minimize (mtables tts)).S.mincost

let gen_pair =
  QCheck.Gen.(
    int_range 2 5 >>= fun n ->
    let table = string_size ~gen:(oneofl [ '0'; '1' ]) (return (1 lsl n)) in
    pair table table >|= fun (a, b) -> [| T.of_string a; T.of_string b |])

let arb_pair =
  QCheck.make
    ~print:(fun tts ->
      String.concat "/" (Array.to_list (Array.map T.to_string tts)))
    gen_pair

let unit_tests =
  [
    Helpers.case "quantum shared optimisation of the 2-bit multiplier"
      (fun () ->
        let outputs =
          Array.init 4 (fun j ->
              T.of_fun 4 (fun code ->
                  ((code land 3) * (code lsr 2)) land (1 lsl j) <> 0))
        in
        let exact = exact outputs in
        let ctx = Q.Opt_obdd.make_ctx () in
        let r, cost = quantum ~ctx (O.theorem10 ()) outputs in
        Helpers.check_int "mincost" exact r.S.mincost;
        Helpers.check_bool "cost accounted" true (cost > 0.);
        Helpers.check_bool "valid" true
          (S.check r.S.state (mtables outputs)));
    Helpers.case "subroutine names carry over" (fun () ->
        Helpers.check_bool "fs*" true (O.name O.fs_star = "FS*");
        Helpers.check_bool "tower" true (O.name (O.tower ~depth:2) = "Gamma_2"));
    Helpers.case "classical subroutine over shared states" (fun () ->
        let outputs = [| T.var 3 0; T.( &&& ) (T.var 3 1) (T.var 3 2) |] in
        let ctx = Q.Opt_obdd.make_ctx () in
        let r, _ = quantum ~ctx O.fs_star outputs in
        Helpers.check_int "exact" (exact outputs) r.S.mincost);
  ]

let props =
  [
    QCheck.Test.make ~name:"quantum shared theorem10 equals exact Shared"
      ~count:30 arb_pair
      (fun tts ->
        let ctx = Q.Opt_obdd.make_ctx () in
        let r, _ = quantum ~ctx (O.theorem10 ()) tts in
        r.S.mincost = exact tts);
    QCheck.Test.make ~name:"quantum shared simple_split equals exact Shared"
      ~count:20 arb_pair
      (fun tts ->
        let ctx = Q.Opt_obdd.make_ctx () in
        let r, _ = quantum ~ctx (O.simple_split ()) tts in
        r.S.mincost = exact tts);
    QCheck.Test.make ~name:"quantum shared tower-2 equals exact Shared"
      ~count:15 arb_pair
      (fun tts ->
        let ctx = Q.Opt_obdd.make_ctx () in
        let r, _ = quantum ~ctx (O.tower ~depth:2) tts in
        r.S.mincost = exact tts);
    QCheck.Test.make
      ~name:"error injection still yields valid shared diagrams" ~count:30
      (QCheck.pair arb_pair QCheck.small_int)
      (fun (tts, seed) ->
        let ctx = Q.Opt_obdd.make_ctx ~rng:(Helpers.rng seed) ~epsilon:0.5 () in
        let r, _ = quantum ~ctx (O.theorem10 ()) tts in
        S.check r.S.state (mtables tts)
        && r.S.mincost >= exact tts);
  ]

let () =
  Alcotest.run "opt_shared"
    [ ("unit", unit_tests); ("props", Helpers.qtests props) ]
