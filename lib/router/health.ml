module P = Ovo_serve.Protocol
module Client = Ovo_serve.Client

type state = { mutable up : bool; mutable since : float; mutable fails : int }

type t = {
  table : (string, state) Hashtbl.t;
  m : Mutex.t;
  interval : float;
  timeout : float;
  addrs : (string * P.addr) list;
  stop : bool Atomic.t;
  on_change : string -> bool -> unit;
  mutable checker : Thread.t option;
}

let now () = Unix.gettimeofday ()

let state t name =
  match Hashtbl.find_opt t.table name with
  | Some s -> s
  | None ->
      let s = { up = true; since = now (); fails = 0 } in
      Hashtbl.add t.table name s;
      s

let is_up t name =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () -> (state t name).up)

let set t name up =
  Mutex.lock t.m;
  let changed =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.m)
      (fun () ->
        let s = state t name in
        let changed = s.up <> up in
        if changed then begin
          s.up <- up;
          s.since <- now ()
        end;
        s.fails <- (if up then 0 else s.fails + 1);
        changed)
  in
  if changed then t.on_change name up

let mark_down t name = set t name false
let mark_up t name = set t name true

let snapshot t =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      List.map
        (fun (name, _) ->
          let s = state t name in
          (name, s.up, now () -. s.since))
        t.addrs)

(* One probe: connect (bounded) and ping.  Any failure marks the shard
   down; the next successful probe marks it back up — the data path
   also calls [mark_down]/[mark_up] as its own proxying succeeds or
   fails, so recovery does not have to wait a full interval. *)
let probe t (name, addr) = set t name (Client.ping ~timeout:t.timeout addr)

let checker_loop t =
  let rec nap k =
    if k > 0 && not (Atomic.get t.stop) then begin
      Thread.delay 0.1;
      nap (k - 1)
    end
  in
  let naps = max 1 (int_of_float (Float.round (t.interval /. 0.1))) in
  let rec loop () =
    if Atomic.get t.stop then ()
    else begin
      List.iter (fun s -> if not (Atomic.get t.stop) then probe t s) t.addrs;
      nap naps;
      loop ()
    end
  in
  loop ()

let start ?(interval = 2.0) ?(timeout = 1.0)
    ?(on_change = fun _ _ -> ()) addrs =
  let t =
    { table = Hashtbl.create 8; m = Mutex.create (); interval; timeout;
      addrs; stop = Atomic.make false; on_change; checker = None }
  in
  (* everything starts up: the first request (or first probe) corrects
     an optimistic start faster than pessimism would let traffic flow *)
  List.iter (fun (name, _) -> ignore (state t name)) addrs;
  t.checker <- Some (Thread.create checker_loop t);
  t

let stop t =
  Atomic.set t.stop true;
  Option.iter Thread.join t.checker;
  t.checker <- None
