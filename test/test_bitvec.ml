module Bv = Ovo_boolfun.Bitvec

let unit_tests =
  [
    Helpers.case "create is zeroed" (fun () ->
        let v = Bv.create 70 in
        Helpers.check_int "len" 70 (Bv.length v);
        Helpers.check_int "popcount" 0 (Bv.popcount v);
        Helpers.check_bool "is_zero" true (Bv.is_zero v));
    Helpers.case "set/get single bits" (fun () ->
        let v = Bv.create 17 in
        Bv.set v 0 true;
        Bv.set v 16 true;
        Bv.set v 7 true;
        Bv.set v 8 true;
        Helpers.check_bool "bit 0" true (Bv.get v 0);
        Helpers.check_bool "bit 1" false (Bv.get v 1);
        Helpers.check_bool "bit 7" true (Bv.get v 7);
        Helpers.check_bool "bit 8" true (Bv.get v 8);
        Helpers.check_bool "bit 16" true (Bv.get v 16);
        Helpers.check_int "popcount" 4 (Bv.popcount v));
    Helpers.case "set false clears" (fun () ->
        let v = Bv.create 9 in
        Bv.set v 5 true;
        Bv.set v 5 false;
        Helpers.check_bool "cleared" false (Bv.get v 5);
        Helpers.check_bool "is_zero" true (Bv.is_zero v));
    Helpers.case "out of range raises" (fun () ->
        let v = Bv.create 8 in
        Alcotest.check_raises "get -1" (Invalid_argument "Bitvec: index out of range")
          (fun () -> ignore (Bv.get v (-1)));
        Alcotest.check_raises "get 8" (Invalid_argument "Bitvec: index out of range")
          (fun () -> ignore (Bv.get v 8)));
    Helpers.case "negative length raises" (fun () ->
        Alcotest.check_raises "create" (Invalid_argument "Bitvec.create")
          (fun () -> ignore (Bv.create (-1))));
    Helpers.case "string round trip" (fun () ->
        let s = "011010001110101" in
        Alcotest.(check string) "round" s (Bv.to_string (Bv.of_string s)));
    Helpers.case "of_string rejects junk" (fun () ->
        Alcotest.check_raises "junk" (Invalid_argument "Bitvec.of_string")
          (fun () -> ignore (Bv.of_string "01x")));
    Helpers.case "of_string rejects every other byte at every position"
      (fun () ->
        (* lengths 1, 2 and 4 end in a partial byte, as tables of n <= 2 do *)
        List.iter
          (fun len ->
            List.iter
              (fun fill ->
                for pos = 0 to len - 1 do
                  for code = 0 to 255 do
                    if code <> Char.code '0' && code <> Char.code '1' then
                      let s =
                        String.init len (fun i ->
                            if i = pos then Char.chr code else fill i)
                      in
                      match Bv.of_string s with
                      | _ ->
                          Alcotest.failf "accepted byte %d at %d of %d" code
                            pos len
                      | exception Invalid_argument m ->
                          Alcotest.(check string) "message" "Bitvec.of_string"
                            m
                  done
                done)
              [
                (fun _ -> '0');
                (fun _ -> '1');
                (fun i -> if i land 1 = 0 then '1' else '0');
              ])
          [ 1; 2; 4; 8; 64 ]);
    Helpers.case "is_ones" (fun () ->
        Helpers.check_bool "ones" true (Bv.is_ones (Bv.of_string "11111"));
        Helpers.check_bool "not ones" false (Bv.is_ones (Bv.of_string "11011")));
    Helpers.case "lnot involutive on example" (fun () ->
        let v = Bv.of_string "0110100" in
        Helpers.check_bool "double negation" true
          (Bv.equal v (Bv.lnot_ (Bv.lnot_ v))));
    Helpers.case "map2 and" (fun () ->
        let a = Bv.of_string "1100" and b = Bv.of_string "1010" in
        Alcotest.(check string) "and" "1000" (Bv.to_string (Bv.map2 ( && ) a b)));
    Helpers.case "map2 length mismatch" (fun () ->
        Alcotest.check_raises "mismatch" (Invalid_argument "Bitvec.map2")
          (fun () ->
            ignore (Bv.map2 ( && ) (Bv.create 3) (Bv.create 4))));
    Helpers.case "empty vector" (fun () ->
        let v = Bv.create 0 in
        Helpers.check_int "len" 0 (Bv.length v);
        Helpers.check_bool "is_zero" true (Bv.is_zero v);
        Helpers.check_bool "is_ones" true (Bv.is_ones v));
    Helpers.case "index kernels refuse bad lengths and index bits" (fun () ->
        let bad f = Alcotest.check_raises "refused" (Invalid_argument f) in
        bad "Bitvec.index_counts" (fun () ->
            ignore (Bv.index_counts (Bv.create 6) 2));
        bad "Bitvec.permute_index" (fun () ->
            ignore (Bv.permute_index (Bv.create 8) [| 0; 1 |]));
        bad "Bitvec.permute_index" (fun () ->
            ignore (Bv.permute_index (Bv.create 4) [| 0; 2 |]));
        bad "Bitvec.permute_index" (fun () ->
            ignore (Bv.permute_index (Bv.create 4) [| -1; 0 |])));
  ]

(* A [2^n]-bit vector for n in 0 .. 11. *)
let arb_indexed =
  QCheck.make ~print:Bv.to_string
    QCheck.Gen.(
      int_range 0 11 >>= fun n ->
      string_size ~gen:(oneofl [ '0'; '1' ]) (return (1 lsl n))
      >|= Bv.of_string)

let log2 v =
  let rec go n = if 1 lsl n >= Bv.length v then n else go (n + 1) in
  go 0

let gen_bits =
  QCheck.Gen.(
    int_range 0 200 >>= fun len ->
    string_size ~gen:(oneofl [ '0'; '1' ]) (return len))

let arb_bits = QCheck.make ~print:(fun s -> s) gen_bits

let props =
  [
    QCheck.Test.make ~name:"string round trip" ~count:200 arb_bits (fun s ->
        Bv.to_string (Bv.of_string s) = s);
    QCheck.Test.make ~name:"popcount matches string" ~count:200 arb_bits
      (fun s ->
        Bv.popcount (Bv.of_string s)
        = String.fold_left (fun acc c -> if c = '1' then acc + 1 else acc) 0 s);
    QCheck.Test.make ~name:"lnot involutive" ~count:200 arb_bits (fun s ->
        let v = Bv.of_string s in
        Bv.equal v (Bv.lnot_ (Bv.lnot_ v)));
    QCheck.Test.make ~name:"hash respects equal" ~count:200 arb_bits (fun s ->
        let a = Bv.of_string s and b = Bv.of_string s in
        Bv.equal a b && Bv.hash a = Bv.hash b && Bv.compare a b = 0);
    QCheck.Test.make ~name:"word-parallel kernels equal map2" ~count:300
      (QCheck.pair arb_bits arb_bits)
      (fun (s1, s2) ->
        let len = min (String.length s1) (String.length s2) in
        let a = Bv.of_string (String.sub s1 0 len) in
        let b = Bv.of_string (String.sub s2 0 len) in
        Bv.equal (Bv.and_ a b) (Bv.map2 ( && ) a b)
        && Bv.equal (Bv.or_ a b) (Bv.map2 ( || ) a b)
        && Bv.equal (Bv.xor_ a b) (Bv.map2 ( <> ) a b));
    QCheck.Test.make ~name:"fast lnot keeps the tail invariant" ~count:300
      arb_bits
      (fun s ->
        let v = Bv.of_string s in
        let n = Bv.lnot_ v in
        (* the invariant shows up through popcount and xor *)
        Bv.popcount n = String.length s - Bv.popcount v
        && Bv.is_ones (Bv.xor_ v n) = (String.length s > 0)
        || String.length s = 0);
    QCheck.Test.make ~name:"index_counts equals a per-bit count" ~count:300
      arb_indexed
      (fun v ->
        let n = log2 v in
        let c1, c11 = Bv.index_counts v n in
        let ok = ref true in
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            let count = ref 0 and count1 = ref 0 in
            for i = 0 to Bv.length v - 1 do
              if Bv.get v i && i land (1 lsl j) <> 0 then begin
                incr count1;
                if j <> k && i land (1 lsl k) <> 0 then incr count
              end
            done;
            if c11.(j).(k) <> !count || c1.(j) <> !count1 then ok := false
          done
        done;
        !ok);
    QCheck.Test.make ~name:"init/get agree" ~count:200
      QCheck.(int_range 0 100)
      (fun len ->
        let v = Bv.init len (fun i -> i mod 3 = 0) in
        let ok = ref true in
        for i = 0 to len - 1 do
          if Bv.get v i <> (i mod 3 = 0) then ok := false
        done;
        !ok);
  ]

let () =
  Alcotest.run "bitvec"
    [ ("unit", unit_tests); ("props", Helpers.qtests props) ]
