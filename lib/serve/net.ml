module P = Protocol

let sockaddr_of = function
  | P.Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | P.Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).h_addr_list.(0)
      in
      (Unix.PF_INET, Unix.ADDR_INET (ip, port))

let bind_listen addr =
  (match addr with
  | P.Unix_sock path ->
      (* a previous unclean exit leaves the socket file around; a live
         daemon on the same path will still fail the bind below *)
      (try Unix.unlink path with Unix.Unix_error _ -> ())
  | P.Tcp _ -> ());
  let domain, sockaddr = sockaddr_of addr in
  let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | P.Tcp _ -> Unix.setsockopt sock Unix.SO_REUSEADDR true
  | P.Unix_sock _ -> ());
  Unix.bind sock sockaddr;
  Unix.listen sock 64;
  sock

(* ---------- the one listener: daemon, router, scrape responder ---------- *)

let now = Ovo_obs.Trace.monotonic

type listener = {
  addr : P.addr;
  lsock : Unix.file_descr;
  idle_timeout : float option;
  stop : bool Atomic.t;
  last_activity : float Atomic.t;
  mutable acceptor : Thread.t option;
}

let listen ?idle_timeout addr =
  (* a client vanishing mid-reply must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Sys_error _ | Invalid_argument _ -> ());
  { addr; lsock = bind_listen addr; idle_timeout; stop = Atomic.make false;
    last_activity = Atomic.make (now ()); acceptor = None }

let shutdown l = Atomic.set l.stop true
let stopping l = Atomic.get l.stop

let stop_on_signals l =
  List.iter
    (fun signal ->
      try Sys.set_signal signal (Sys.Signal_handle (fun _ -> shutdown l))
      with Sys_error _ | Invalid_argument _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* [select] with a timeout, so the loop notices the stop flag *)
let accept l handle =
  let rec loop () =
    (match l.idle_timeout with
    | Some limit when now () -. Atomic.get l.last_activity > limit ->
        shutdown l
    | _ -> ());
    if not (Atomic.get l.stop) then
      match Unix.select [ l.lsock ] [] [] 0.25 with
      | [], _, _ -> loop ()
      | _ :: _, _, _ ->
          (match Unix.accept l.lsock with
          | exception Unix.Unix_error _ -> ()
          | fd, _ ->
              Atomic.set l.last_activity (now ());
              ignore (Thread.create handle fd));
          loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  l.acceptor <- Some (Thread.create loop ())

let serve_requests l ?(on_bad_request = ignore) fd handle =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let send reply =
    output_string oc (P.reply_to_line reply);
    output_char oc '\n';
    flush oc
  in
  let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally (fun () ->
      let rec loop () =
        match input_line ic with
        | exception (End_of_file | Sys_error _) -> ()
        | line ->
            if String.trim line <> "" then begin
              match P.request_of_line line with
              | Ok req ->
                  Atomic.set l.last_activity (now ());
                  handle send req
              | Error (`Msg m) ->
                  on_bad_request ();
                  send
                    (P.reply 0
                       (P.Error
                          { code = P.Bad_request; message = m;
                            retry_after_ms = None }))
            end;
            loop ()
      in
      try loop () with Sys_error _ -> ())

let wait l ~drain =
  while not (Atomic.get l.stop) do
    Thread.delay 0.05
  done;
  Option.iter Thread.join l.acceptor;
  (try Unix.close l.lsock with Unix.Unix_error _ -> ());
  drain ();
  match l.addr with
  | P.Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | P.Tcp _ -> ()
