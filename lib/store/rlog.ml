let log_src = Logs.Src.create "ovo.store.rlog" ~doc:"record log"

module Log = (val Logs.src_log log_src : Logs.LOG)

let magic = "OVOLOG01"
let header_len = String.length magic

(* framing overhead: u32 len + u32 crc *)
let frame_overhead = 8

(* a frame longer than this was not written by us — reject before
   allocating on a garbage length field *)
let max_record_len = 0x3FFF_FFFF

type fsync = Always | Interval of float | Never

let fsync_of_string = function
  | "always" -> Ok Always
  | "never" -> Ok Never
  | "interval" -> Ok (Interval 1.0)
  | s when String.length s > 9 && String.sub s 0 9 = "interval:" -> (
      let rest = String.sub s 9 (String.length s - 9) in
      match float_of_string_opt rest with
      | Some f when f >= 0. -> Ok (Interval f)
      | Some _ | None -> Error (Printf.sprintf "bad fsync interval %S" rest))
  | s ->
      Error
        (Printf.sprintf
           "bad fsync mode %S (expected always, never, interval or \
            interval:<seconds>)"
           s)

let fsync_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Interval s -> Printf.sprintf "interval:%g" s

type record = { rtype : int; payload : string }
type recovery = { rec_valid : int; rec_discarded_bytes : int }

let u32_at s pos =
  let byte i = Char.code s.[pos + i] in
  byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24)

(* Scan the valid prefix: records from [header_len] up to the first
   frame that fails a length or CRC check.  Returns them with the byte
   offset the file should be truncated to. *)
let scan contents =
  let size = String.length contents in
  let records = ref [] in
  let pos = ref header_len in
  let stop = ref false in
  while not !stop do
    if !pos + frame_overhead + 1 > size then stop := true
    else begin
      let len = u32_at contents !pos in
      let crc = Int32.of_int (u32_at contents (!pos + 4)) in
      (* the stored crc is the low 32 bits; normalise for compare *)
      let crc = Int32.logand crc 0xFFFFFFFFl in
      if len < 1 || len > max_record_len || !pos + frame_overhead + len > size
      then stop := true
      else begin
        let body_pos = !pos + frame_overhead in
        let actual =
          Crc32.update
            (Bytes.unsafe_of_string contents)
            ~pos:body_pos ~len
        in
        if actual <> crc then stop := true
        else begin
          records :=
            {
              rtype = Char.code contents.[body_pos];
              payload = String.sub contents (body_pos + 1) (len - 1);
            }
            :: !records;
          pos := body_pos + len
        end
      end
    end
  done;
  (List.rev !records, !pos)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let read path =
  match read_file path with
  | exception Sys_error m -> Error m
  | contents ->
      if String.length contents < header_len then
        Error (Printf.sprintf "%s: missing or truncated header" path)
      else if String.sub contents 0 header_len <> magic then
        Error (Printf.sprintf "%s: foreign magic" path)
      else
        let records, valid_end = scan contents in
        Ok
          ( records,
            {
              rec_valid = List.length records;
              rec_discarded_bytes = String.length contents - valid_end;
            } )

(* The magic, or a prefix of it when shorter (a header torn by a crash). *)
let starts_like_a_log contents =
  let n = min (String.length contents) header_len in
  String.sub contents 0 n = String.sub magic 0 n

let holds_no_record path =
  match read_file path with
  | exception Sys_error _ -> not (Sys.file_exists path)
  | contents -> starts_like_a_log contents && fst (scan contents) = []

type t = {
  t_path : string;
  fd : Unix.file_descr;
  fsync : fsync;
  mutable t_size : int;
  mutable last_sync : float;
  mutable closed : bool;
}

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let open_raw path = Unix.openfile path [ O_WRONLY; O_CREAT ] 0o644

let create ?(fsync = Never) path =
  let fd = open_raw path in
  Unix.ftruncate fd 0;
  write_all fd magic;
  {
    t_path = path;
    fd;
    fsync;
    t_size = header_len;
    last_sync = Unix.gettimeofday ();
    closed = false;
  }

let open_append ?(fsync = Never) path =
  let contents =
    match read_file path with exception Sys_error _ -> "" | c -> c
  in
  if not (starts_like_a_log contents) then
    failwith (Printf.sprintf "Rlog.open_append: %s: foreign magic" path);
  if String.length contents < header_len then begin
    (* missing, empty, or killed before the header hit the disk *)
    let t = create ~fsync path in
    (t, [], { rec_valid = 0; rec_discarded_bytes = String.length contents })
  end
  else begin
    let records, valid_end = scan contents in
    let discarded = String.length contents - valid_end in
    if discarded > 0 then
      Log.warn (fun m ->
          m "%s: truncating %d trailing bytes past record %d" path discarded
            (List.length records));
    let fd = open_raw path in
    Unix.ftruncate fd valid_end;
    ignore (Unix.lseek fd 0 Unix.SEEK_END);
    ( {
        t_path = path;
        fd;
        fsync;
        t_size = valid_end;
        last_sync = Unix.gettimeofday ();
        closed = false;
      },
      records,
      { rec_valid = List.length records; rec_discarded_bytes = discarded } )
  end

let frame ~rtype payload =
  if rtype < 0 || rtype > 0xFF then invalid_arg "Rlog.append: rtype";
  let len = 1 + String.length payload in
  if len > max_record_len then invalid_arg "Rlog.append: record too long";
  let b = Buffer.create (frame_overhead + len) in
  Codec.u32 b len;
  let body = Buffer.create len in
  Codec.u8 body rtype;
  Buffer.add_string body payload;
  let body = Buffer.contents body in
  Codec.u32 b
    (Int32.to_int (Crc32.string body) land 0xFFFFFFFF);
  Buffer.add_string b body;
  Buffer.contents b

let maybe_sync t =
  match t.fsync with
  | Never -> ()
  | Always -> Unix.fsync t.fd
  | Interval s ->
      let now = Unix.gettimeofday () in
      if now -. t.last_sync >= s then begin
        Unix.fsync t.fd;
        t.last_sync <- now
      end

let append t ~rtype payload =
  if t.closed then invalid_arg "Rlog.append: closed";
  let fr = frame ~rtype payload in
  write_all t.fd fr;
  t.t_size <- t.t_size + String.length fr;
  maybe_sync t

let sync t = if not t.closed then Unix.fsync t.fd

let size t = t.t_size
let path t = t.t_path

let close t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd
  end

let write_atomic ?fsync path records =
  let tmp = path ^ ".tmp" in
  let t = create ?fsync tmp in
  List.iter (fun (rtype, payload) -> append t ~rtype payload) records;
  sync t;
  close t;
  Sys.rename tmp path
