module P = Protocol

type sink = Prom_file of string | Prom_addr of P.addr

(* A spec with a '/' is a file path; a parseable host:port is a TCP
   scrape endpoint; a bare word (no slash, no port) is a file in the
   current directory. *)
let sink_of_string s =
  if String.contains s '/' then Ok (Prom_file s)
  else
    match P.addr_of_string s with
    | Ok (P.Tcp _ as a) -> Ok (Prom_addr a)
    | Ok (P.Unix_sock _) -> Ok (Prom_file s)
    | Error _ as e -> e

let sink_to_string = function
  | Prom_file f -> f
  | Prom_addr a -> P.addr_to_string a

type t = {
  sink : sink option;
  render : unit -> string;
  refresh : unit -> unit;
  period : float;
  stop : bool Atomic.t;
  scrape : Net.listener option;
  mutable ticker : Thread.t option;
}

(* tmp + rename so a scraper reading the file never sees a torn write *)
let write_file t path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (t.render ());
  close_out oc;
  Sys.rename tmp path

(* Heartbeat: GC/resident gauges stay fresh even with no scraper
   attached, and a file sink gets rewritten atomically every beat. *)
let ticker_loop t =
  let rec nap k =
    if k > 0 && not (Atomic.get t.stop) then begin
      Thread.delay 0.1;
      nap (k - 1)
    end
  in
  let naps = max 1 (int_of_float (Float.round (t.period /. 0.1))) in
  let rec loop () =
    if Atomic.get t.stop then ()
    else begin
      (match t.sink with
      | Some (Prom_file path) -> (
          try write_file t path with Sys_error _ -> ())
      | Some (Prom_addr _) | None -> t.refresh ());
      nap naps;
      loop ()
    end
  in
  loop ()

(* Minimal one-shot HTTP/1.0 responder for a Prometheus scrape: read
   whatever request head arrives, answer with the exposition, close.
   Not a general HTTP server — just enough for a scrape loop or curl. *)
let serve_scrape t fd =
  let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally (fun () ->
      (try ignore (Unix.read fd (Bytes.create 4096) 0 4096)
       with Unix.Unix_error _ -> ());
      let body = t.render () in
      let resp =
        Printf.sprintf
          "HTTP/1.0 200 OK\r\n\
           Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
           Content-Length: %d\r\n\
           Connection: close\r\n\r\n%s"
          (String.length body) body
      in
      try ignore (Unix.write_substring fd resp 0 (String.length resp))
      with Unix.Unix_error _ -> ())

let start ?(period = 1.0) ~sink ~render ~refresh () =
  let scrape =
    match sink with
    | Some (Prom_addr addr) -> Some (Net.listen addr)
    | Some (Prom_file _) | None -> None
  in
  let t =
    { sink; render; refresh; period; stop = Atomic.make false; scrape;
      ticker = None }
  in
  t.ticker <- Some (Thread.create ticker_loop t);
  Option.iter (fun l -> Net.accept l (serve_scrape t)) scrape;
  t

let stop_and_flush t =
  Atomic.set t.stop true;
  (* join before the final snapshot so nothing races the write below —
     once this returns, the file can never be rewritten again *)
  Option.iter Thread.join t.ticker;
  t.ticker <- None;
  Option.iter
    (fun l ->
      Net.shutdown l;
      Net.wait l ~drain:ignore)
    t.scrape;
  match t.sink with
  | Some (Prom_file path) -> (
      try write_file t path with Sys_error _ -> ())
  | Some (Prom_addr _) | None -> ()
