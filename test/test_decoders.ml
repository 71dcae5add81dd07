(* Every decoder is total on hostile bytes: random strings, and
   truncations, byte flips and splices of valid encodings, fail only in
   the decoder's documented way.  The text parsers raise [Failure]; the
   wire protocol, the JSON parser and the record log return [Error];
   the binary codec's readers raise [Codec.Corrupt]. *)

module T = Ovo_boolfun.Truthtable
module P = Ovo_serve.Protocol
module Json = Ovo_obs.Json
module Codec = Ovo_store.Codec
module Rlog = Ovo_store.Rlog

let random_string st ~chars len =
  String.init len (fun _ ->
      match chars with
      | Some s -> s.[Random.State.int st (String.length s)]
      | None -> Char.chr (Random.State.int st 256))

(* One damage step on [s]; [corpus] supplies splice partners and the
   decoder's own alphabet. *)
let damage st corpus s =
  let pick () = corpus.(Random.State.int st (Array.length corpus)) in
  let alphabet () =
    let c = pick () in
    if c = "" then None else Some c
  in
  let len = String.length s in
  let edit f =
    let b = Bytes.of_string s in
    for _ = 0 to Random.State.int st 2 do
      let i = Random.State.int st len in
      Bytes.set b i (f (Bytes.get b i))
    done;
    Bytes.to_string b
  in
  let digits =
    List.filter (fun i -> s.[i] >= '0' && s.[i] <= '9') (List.init len Fun.id)
  in
  match Random.State.int st 8 with
  | 7 when digits <> [] ->
      (* a number changes value, the damage that reaches a text
         decoder's range checks: a digit is replaced or one inserted *)
      let i = List.nth digits (Random.State.int st (List.length digits)) in
      let d = String.make 1 (Char.chr (Char.code '0' + Random.State.int st 10))
      and from = i + Random.State.int st 2 in
      String.sub s 0 i ^ d ^ String.sub s from (len - from)
  | 0 -> String.sub s 0 (Random.State.int st (len + 1))
  | 1 when len > 0 ->
      edit (fun c -> Char.chr (Char.code c lxor (1 + Random.State.int st 255)))
  | 2 when len > 0 ->
      let chars = alphabet () in
      edit (fun _ -> (random_string st ~chars 1).[0])
  | 3 ->
      let t = pick () in
      let i = Random.State.int st (len + 1)
      and j = Random.State.int st (String.length t + 1) in
      String.sub s 0 i ^ String.sub t j (String.length t - j)
  | 4 ->
      let i = Random.State.int st (len + 1) in
      String.sub s 0 i
      ^ random_string st ~chars:None (Random.State.int st 16)
      ^ String.sub s i (len - i)
  | 5 -> random_string st ~chars:None (Random.State.int st (2 * len + 2))
  | _ -> random_string st ~chars:(alphabet ()) (Random.State.int st (2 * len + 2))

(* One damage step, and another with probability 1/3 each time. *)
let hostile st corpus =
  let rec go s =
    let s = damage st corpus s in
    if Random.State.int st 3 = 0 then go s else s
  in
  go corpus.(Random.State.int st (Array.length corpus))

(* [check s] is [None] when [s] failed (or decoded) as documented, and
   otherwise names the exception that escaped. *)
let prop ?(count = 2000) name corpus check =
  QCheck.Test.make ~count ~name QCheck.(int_range 0 1_000_000) (fun seed ->
      let s = hostile (Helpers.rng seed) corpus in
      match check s with
      | None -> true
      | Some e -> QCheck.Test.fail_reportf "%S raised %s" s e)

let raises_only_failure decode s =
  match decode s with
  | _ | (exception Failure _) -> None
  | exception e -> Some (Printexc.to_string e)

let never_raises decode s =
  match decode s with
  | Ok _ | Error _ -> None
  | exception e -> Some (Printexc.to_string e)

(* --- corpora of valid encodings ----------------------------------------- *)

let tts =
  Ovo_boolfun.Families.hidden_weighted_bit 6
  :: List.map T.of_string
       [ "0110"; "00010111"; "0110100110010110"; "01101001100101101110100000010111" ]

let diagrams =
  List.concat_map
    (fun tt ->
      List.map
        (fun kind ->
          Ovo_core.Diagram.serialize (Ovo_core.Fs.run ~kind tt).Ovo_core.Fs.diagram)
        [ Ovo_core.Compact.Bdd; Ovo_core.Compact.Zdd ])
    tts
  @ [
      Ovo_core.Diagram.serialize
        (Ovo_core.Fs.run_mtable
           (Ovo_boolfun.Mtable.of_array ~values:3 [| 0; 2; 1; 1; 2; 0; 0; 1 |]))
          .Ovo_core.Fs.diagram;
    ]

let plas =
  [
    Ovo_boolfun.Pla.to_string
      (Ovo_boolfun.Pla.of_truthtables
         [| T.of_string "00010111"; T.of_string "01101001" |]);
    ".i 4\n.o 2\n.ilb a b c d\n.ob f g\n.p 3\n1-0- 10\n-11- 01\n0--1 1~\n.e\n";
    ".i 62\n.o 1\n.p 1\n" ^ String.make 62 '-' ^ " 1\n.end\n";
  ]

let blifs =
  [
    {|.model fa
.inputs a b cin
.outputs sum cout
.names a b axb
10 1
01 1
.names axb cin sum
10 1
01 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end|};
    ".model c\n.inputs x y\n.outputs z\n.names x y z\n0- 0\n.names\n.end\n";
  ]

let exprs =
  "x0 & x1 | !x2 ^ (x3 | x40)"
  :: List.init 6 (fun seed ->
         Ovo_boolfun.Expr.to_string
           (Ovo_boolfun.Expr.random (Helpers.rng seed) ~vars:6 ~depth:5))

let solve_params table =
  { P.table; kind = Ovo_core.Compact.Zdd; engine = Ovo_core.Engine.Par { domains = 2 };
    deadline_ms = Some 250. }

let requests =
  List.map P.request_to_line
    [
      { P.id = 1; op = P.Solve (solve_params "0110") };
      { P.id = 2; op = P.Solve_many [ solve_params "01"; solve_params "0001" ] };
      { P.id = 3; op = P.Stats };
      { P.id = 4; op = P.Metrics P.Mprom };
      { P.id = 5; op = P.Ping };
      { P.id = 6; op = P.Shutdown };
    ]

let replies =
  List.map P.reply_to_line
    [
      P.reply 1
        (P.Ok_solve
           { P.digest = "d41d8cd9"; mincost = 3; size = 5; order = [| 2; 0; 1 |];
             widths = [| 1; 1; 1 |]; cached = true; queue_ms = 0.5; solve_ms = 1.25 });
      P.reply ~item:2 7 (P.Cancelled "deadline");
      P.reply 8
        (P.Error { code = P.Queue_full; message = "full"; retry_after_ms = Some 10. });
      P.reply 9 (P.Ok_stats (Json.Obj [ ("a", Json.List [ Json.Null; Json.Bool true ]) ]));
    ]

let jsons =
  Json.to_string
    (Json.Obj
       [
         ("s", Json.String "q\"\\\n\t\001é");
         ("n", Json.List [ Json.Int (-42); Json.Float 1.5e-7; Json.Float 3. ]);
         ("o", Json.Obj [ ("t", Json.Bool false); ("z", Json.Null) ]);
       ])
  :: Ovo_core.Metrics.to_json (Ovo_core.Metrics.snapshot (Ovo_core.Metrics.create ()))
  :: requests

let codec_buffers =
  List.map
    (fun write ->
      let b = Buffer.create 64 in
      write b;
      Buffer.contents b)
    [
      (fun b ->
        Codec.u8 b 7;
        Codec.u32 b 123456;
        Codec.u64 b (-5);
        Codec.str b "payload";
        Codec.int_array b [| 1; max_int; min_int; 0 |]);
      (fun b ->
        Codec.str b "";
        Codec.int_array b [||];
        Codec.u8 b 255);
    ]

let tmpfile () = Filename.temp_file "ovo-decoders" ".rlog"

let rlog_files =
  let bytes_of records =
    let path = tmpfile () in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Rlog.write_atomic path records;
        In_channel.with_open_bin path In_channel.input_all)
  in
  [
    bytes_of [ (1, "hello"); (2, String.make 40 'x'); (3, "") ];
    bytes_of (List.map (fun s -> (4, s)) codec_buffers);
  ]

(* --- the readers' programs ------------------------------------------------ *)

(* Read [s] with a program of reader calls drawn from [s]'s own bytes,
   so the reads land at every offset. *)
let codec_program s =
  let r = Codec.reader s in
  match
    String.iter
      (fun c ->
        match Char.code c mod 6 with
        | 0 -> ignore (Codec.r_u8 r)
        | 1 -> ignore (Codec.r_u32 r)
        | 2 -> ignore (Codec.r_u64 r)
        | 3 -> ignore (Codec.r_str r)
        | 4 -> ignore (Codec.r_int_array r)
        | _ -> Codec.expect_end r)
      s
  with
  | () | (exception Codec.Corrupt _) -> None
  | exception e -> Some (Printexc.to_string e)

let rlog_read s =
  let path = tmpfile () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s);
      Rlog.read path)

let props =
  let a = Array.of_list in
  [
    prop "Diagram.deserialize raises only Failure" (a diagrams)
      (raises_only_failure Ovo_core.Diagram.deserialize);
    prop "Pla.of_string raises only Failure" (a plas)
      (raises_only_failure Ovo_boolfun.Pla.of_string);
    prop "Blif.of_string raises only Failure" (a blifs)
      (raises_only_failure Ovo_boolfun.Blif.of_string);
    prop "Expr.of_string raises only Failure" (a exprs)
      (raises_only_failure Ovo_boolfun.Expr.of_string);
    prop "Protocol.request_of_line never raises" (a requests)
      (never_raises P.request_of_line);
    prop "Protocol.reply_of_line never raises" (a replies)
      (never_raises P.reply_of_line);
    prop "Json.parse never raises" (a jsons) (never_raises Json.parse);
    prop ~count:500 "Rlog.read never raises" (a rlog_files) (never_raises rlog_read);
    prop "Codec readers raise only Corrupt" (a codec_buffers) codec_program;
  ]

let () = Alcotest.run "decoders" [ ("hostile", Helpers.qtests props) ]
