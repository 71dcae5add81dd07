(* Cross-cutting integration properties: independently built artefacts
   must agree wherever their semantics overlap. *)

module T = Ovo_boolfun.Truthtable
module B = Ovo_bdd.Bdd

(* a random multi-level netlist: w internal gates, each a random 2-input
   connective over earlier signals; rendered to BLIF and compared with
   the same circuit evaluated directly *)
let random_netlist st ~inputs ~gates =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ".model rand\n.inputs";
  for j = 0 to inputs - 1 do
    Buffer.add_string buf (Printf.sprintf " i%d" j)
  done;
  Buffer.add_string buf "\n.outputs g0\n";
  let signal k = if k < inputs then Printf.sprintf "i%d" k else Printf.sprintf "w%d" (k - inputs) in
  let direct = Array.make (inputs + gates) (T.const inputs false) in
  for j = 0 to inputs - 1 do
    direct.(j) <- T.var inputs j
  done;
  for g = 0 to gates - 1 do
    let a = Random.State.int st (inputs + g) in
    let b = Random.State.int st (inputs + g) in
    let op = Random.State.int st 3 in
    let out = inputs + g in
    (match op with
    | 0 ->
        (* and *)
        Buffer.add_string buf
          (Printf.sprintf ".names %s %s %s\n11 1\n" (signal a) (signal b)
             (signal out));
        direct.(out) <- T.( &&& ) direct.(a) direct.(b)
    | 1 ->
        Buffer.add_string buf
          (Printf.sprintf ".names %s %s %s\n1- 1\n-1 1\n" (signal a) (signal b)
             (signal out));
        direct.(out) <- T.( ||| ) direct.(a) direct.(b)
    | _ ->
        Buffer.add_string buf
          (Printf.sprintf ".names %s %s %s\n10 1\n01 1\n" (signal a) (signal b)
             (signal out));
        direct.(out) <- T.xor direct.(a) direct.(b))
  done;
  (* expose the last wire as g0 *)
  Buffer.add_string buf
    (Printf.sprintf ".names %s g0\n1 1\n" (signal (inputs + gates - 1)));
  Buffer.add_string buf ".end\n";
  (Buffer.contents buf, direct.(inputs + gates - 1))

let props =
  [
    QCheck.Test.make ~name:"random BLIF netlists elaborate correctly"
      ~count:100 QCheck.small_int
      (fun seed ->
        let st = Helpers.rng seed in
        let inputs = 2 + Random.State.int st 4 in
        let gates = 1 + Random.State.int st 8 in
        let blif, expect = random_netlist st ~inputs ~gates in
        let m = Ovo_boolfun.Blif.of_string blif in
        T.equal (Ovo_boolfun.Blif.output_table m "g0") expect);
    QCheck.Test.make
      ~name:"optimised diagram imports agree across managers" ~count:80
      (Helpers.arb_truthtable ~lo:1 ~hi:6 ())
      (fun tt ->
        let r = Ovo_core.Fs.run tt in
        let rf = Ovo_core.Fs.read_first_order r in
        let n = T.arity tt in
        let man_b = B.create ~order:rf n in
        let b = B.import man_b r.Ovo_core.Fs.diagram in
        let man_d = B.create ~order:rf n in
        let d = B.of_truthtable man_d tt in
        B.protect man_d d;
        (* both managers under the optimal order realise the optimal size *)
        B.size man_b b = r.Ovo_core.Fs.size
        && B.live_size man_d = r.Ovo_core.Fs.size);
    QCheck.Test.make
      ~name:"serialize through disk-free channels: Pla -> Fs -> Diagram -> Pla"
      ~count:60
      (Helpers.arb_truthtable ~lo:1 ~hi:5 ())
      (fun tt ->
        let pla = Ovo_boolfun.Pla.of_truthtables [| tt |] in
        let read = Ovo_boolfun.Pla.output_table
            (Ovo_boolfun.Pla.of_string (Ovo_boolfun.Pla.to_string pla))
            0
        in
        let r = Ovo_core.Fs.run read in
        let d =
          Ovo_core.Diagram.deserialize
            (Ovo_core.Diagram.serialize r.Ovo_core.Fs.diagram)
        in
        T.equal (Ovo_core.Diagram.to_truthtable d) tt);
    QCheck.Test.make ~name:"arity-0 and arity-1 edge cases across the stack"
      ~count:20 QCheck.bool
      (fun bit ->
        let t0 = T.const 0 bit in
        let r0 = Ovo_core.Fs.run t0 in
        let t1 = T.var 1 0 in
        let r1 = Ovo_core.Fs.run t1 in
        r0.Ovo_core.Fs.mincost = 0
        && Ovo_core.Diagram.check_tt r0.Ovo_core.Fs.diagram t0
        && r1.Ovo_core.Fs.mincost = 1);
  ]

let () = Alcotest.run "integration" [ ("props", Helpers.qtests props) ]
