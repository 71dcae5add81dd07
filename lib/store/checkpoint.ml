let log_src = Logs.Src.create "ovo.store.checkpoint" ~doc:"DP checkpoints"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Sdp = Ovo_core.Subset_dp
module Lp = Ovo_core.Layer_pack
module Varset = Ovo_core.Varset

type meta = { ck_digest : string; ck_kind : Ovo_core.Compact.kind }

let rtype_meta = 0

(* A layer record is one {!Lp.Extent} spanning the whole layer
   ([lo = 0], [len = C(m,k)]). *)
let rtype_layer = 2

let kind_code = function Ovo_core.Compact.Bdd -> 0 | Ovo_core.Compact.Zdd -> 1

let kind_of_code = function
  | 0 -> Ovo_core.Compact.Bdd
  | 1 -> Ovo_core.Compact.Zdd
  | _ -> raise (Codec.Corrupt "kind")

let meta_of ~kind tt =
  {
    ck_digest = Ovo_boolfun.Truthtable.digest_of_canonical tt;
    ck_kind = kind;
  }

let encode_meta m =
  let b = Buffer.create 32 in
  Codec.str b m.ck_digest;
  Codec.u8 b (kind_code m.ck_kind);
  Buffer.contents b

let decode_meta payload =
  let r = Codec.reader payload in
  let ck_digest = Codec.r_str r in
  let ck_kind = kind_of_code (Codec.r_u8 r) in
  Codec.expect_end r;
  { ck_digest; ck_kind }

(* A checkpointed layer is complete (pruned sweeps reject checkpoints),
   so the union of its k-subsets is the sweep's universe — exactly the
   j_set the extent header must carry. *)
let encode_layer (p : Sdp.progress) =
  let k = p.Sdp.p_layer in
  let j_set =
    Array.fold_left
      (fun acc (ksub, _, _) -> Varset.union acc ksub)
      Varset.empty p.Sdp.p_entries
  in
  let m = Varset.cardinal j_set in
  let total = Lp.binomial m k and pascal = Lp.pascal_table ~m ~k in
  let x = Lp.Extent.create ~j_set ~k ~total in
  Array.iter
    (fun (ksub, cost, choice) ->
      Lp.Extent.set x ~rank:(Lp.rank_in ~pascal ~j_set ksub) ~cost ~choice)
    p.Sdp.p_entries;
  Lp.Extent.encode x

(* [Extent.decode] raises only [Failure], refuses a record that does
   not span its layer, and checks the header against the payload's
   length before allocating, so what a hostile record can make [load]
   allocate is bounded by the record's own length. *)
let decode_layer payload =
  let x = Lp.Extent.decode payload in
  let j_set = Lp.Extent.j_set x and k = Lp.Extent.k x in
  let pascal = Lp.pascal_table ~m:(Varset.cardinal j_set) ~k in
  let entries = Array.make (Lp.Extent.total x) (Varset.empty, 0, 0) in
  Lp.Extent.iter x (fun ~rank ~cost ~choice ->
      entries.(rank) <- (Lp.unrank_in ~pascal ~j_set ~k rank, cost, choice));
  { Sdp.p_layer = k; p_entries = entries }

type t = Rlog.t

let create ?fsync ~path m =
  let rlog = Rlog.create ?fsync path in
  Rlog.append rlog ~rtype:rtype_meta (encode_meta m);
  rlog

let append_layer t p = Rlog.append t ~rtype:rtype_layer (encode_layer p)

let close t =
  Rlog.sync t;
  Rlog.close t

(* The longest consecutive prefix of layers 1..m that decodes cleanly.
   Append order guarantees consecutiveness in an untampered file; a
   corrupt middle record ends the usable prefix even when later records
   are intact — resuming past a hole would change the result.  A record
   of another type or format (an older writer's) ends the prefix too:
   the run recomputes from there rather than misdecode. *)
let layers_prefix records =
  let rec go expect acc = function
    | { Rlog.rtype; payload } :: rest when rtype = rtype_layer -> (
        match decode_layer payload with
        | p when p.Sdp.p_layer = expect -> go (expect + 1) (p :: acc) rest
        | _ | (exception Failure _) -> List.rev acc)
    | _ -> List.rev acc
  in
  go 1 [] records

let load path =
  match Rlog.read path with
  | Error _ as e -> e
  | Ok ([], _) -> Error (path ^ ": no meta record")
  | Ok ({ Rlog.rtype; payload } :: rest, _) ->
      if rtype <> rtype_meta then Error (path ^ ": first record is not meta")
      else (
        match decode_meta payload with
        | m -> Ok (m, layers_prefix rest)
        | exception Codec.Corrupt _ -> Error (path ^ ": corrupt meta record"))

let open_resume ?fsync ~path m =
  match load path with
  | Error _ when Rlog.holds_no_record path ->
      (* missing, or killed before its meta record was whole *)
      (create ?fsync ~path m, [])
  | Error e ->
      failwith
        (Printf.sprintf
           "Checkpoint.open_resume: %s is not a checkpoint, left as it is (%s)"
           path e)
  | Ok (m', _) when m' <> m ->
      failwith
        (Printf.sprintf
           "Checkpoint.open_resume: %s records a different run (digest %s)"
           path m'.ck_digest)
  | Ok (_, layers) ->
      (* compact back to the valid prefix, atomically, then append past
         it — a resumed run can itself be killed and resumed *)
      Rlog.write_atomic ?fsync path
        ((rtype_meta, encode_meta m)
        :: List.map (fun p -> (rtype_layer, encode_layer p)) layers);
      let rlog, records, _ = Rlog.open_append ?fsync path in
      assert (List.length records = 1 + List.length layers);
      Log.info (fun m ->
          m "%s: resuming past layer %d" path (List.length layers));
      (rlog, layers)
