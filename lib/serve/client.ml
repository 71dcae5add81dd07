module P = Protocol

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* A connect with a deadline: non-blocking connect, wait for
   writability, then read SO_ERROR — the portable way to bound the
   three-way handshake (a blocking connect can hang for minutes on a
   dead TCP host). *)
let connect_deadline fd sockaddr timeout =
  Unix.set_nonblock fd;
  (try Unix.connect fd sockaddr with
  | Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _)
    -> (
      match Unix.select [] [ fd ] [] timeout with
      | _, [], _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
      | _, _ :: _, _ -> (
          match Unix.getsockopt_error fd with
          | None -> ()
          | Some e -> raise (Unix.Unix_error (e, "connect", "")))));
  Unix.clear_nonblock fd

let connect ?timeout addr =
  let domain, sockaddr = Net.sockaddr_of addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     match timeout with
     | None -> Unix.connect fd sockaddr
     | Some limit -> connect_deadline fd sockaddr limit
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(* Transient connect failures: the peer is restarting (refused / socket
   file not there yet), or unreachable right now.  Anything else — e.g.
   EACCES — is permanent and retrying would only hide it. *)
let transient = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT | Unix.ETIMEDOUT
  | Unix.EHOSTUNREACH | Unix.ENETUNREACH | Unix.EAGAIN ->
      true
  | _ -> false

let default_backoff_ms = 50.
let max_backoff_ms = 2000.

let connect_retry ?timeout ?(retries = 0) ?(backoff_ms = default_backoff_ms)
    addr =
  let rec go attempt =
    match connect ?timeout addr with
    | t -> t
    | exception Unix.Unix_error (e, _, _) when transient e && attempt < retries
      ->
        let delay =
          Float.min max_backoff_ms (backoff_ms *. (2. ** float_of_int attempt))
        in
        Thread.delay (delay /. 1000.);
        go (attempt + 1)
  in
  go 0

let send t req =
  output_string t.oc (P.request_to_line req);
  output_char t.oc '\n';
  flush t.oc

let recv t =
  match input_line t.ic with
  | exception End_of_file -> Error (`Msg "connection closed by server")
  | exception Sys_error m -> Error (`Msg m)
  | line -> P.reply_of_line line

let roundtrip t req =
  match send t req with
  | exception Sys_error m -> Error (`Msg m)
  | () -> recv t

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let with_conn ?timeout ?retries ?backoff_ms addr f =
  let t = connect_retry ?timeout ?retries ?backoff_ms addr in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let ping ?(timeout = 1.0) addr =
  match with_conn ~timeout addr (fun c -> roundtrip c { P.id = 0; op = P.Ping }) with
  | Ok { P.body = P.Pong; _ } -> true
  | Ok _ | Error _ | (exception Unix.Unix_error _) -> false
