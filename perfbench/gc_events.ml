module RE = Runtime_events

type sample = {
  pause_s : float;
  minors : int;
  minor_words : int;
  promoted_words : int;
  lost : int;
}

type t = {
  cursor : RE.cursor;
  mutable callbacks : RE.Callbacks.t;
  depth : (int, int * int64) Hashtbl.t;
  mutable pause_ns : int64;
  mutable minors : int;
  mutable minor_words : int;
  mutable promoted_words : int;
  mutable lost : int;
}

(* A pause is an outermost runtime phase on one ring (one domain):
   nested phases are part of their parent.  Waiting on a condition
   between domains is not collection work. *)
let counted = function RE.EV_DOMAIN_CONDITION_WAIT -> false | _ -> true

let make cursor =
  let t =
    {
      cursor;
      callbacks = RE.Callbacks.create ();
      depth = Hashtbl.create 8;
      pause_ns = 0L;
      minors = 0;
      minor_words = 0;
      promoted_words = 0;
      lost = 0;
    }
  in
  let runtime_begin ring ts phase =
    if counted phase then begin
      if phase = RE.EV_MINOR then t.minors <- t.minors + 1;
      match Hashtbl.find_opt t.depth ring with
      | None | Some (0, _) ->
          Hashtbl.replace t.depth ring (1, RE.Timestamp.to_int64 ts)
      | Some (d, start) -> Hashtbl.replace t.depth ring (d + 1, start)
    end
  in
  let runtime_end ring ts phase =
    if counted phase then
      match Hashtbl.find_opt t.depth ring with
      | Some (1, start) ->
          Hashtbl.replace t.depth ring (0, 0L);
          t.pause_ns <-
            Int64.add t.pause_ns (Int64.sub (RE.Timestamp.to_int64 ts) start)
      | Some (d, start) when d > 1 -> Hashtbl.replace t.depth ring (d - 1, start)
      | _ -> ()  (* the phase began before the cursor attached *)
  in
  let runtime_counter _ring _ts counter value =
    match counter with
    | RE.EV_C_MINOR_ALLOCATED -> t.minor_words <- t.minor_words + value
    | RE.EV_C_MINOR_PROMOTED -> t.promoted_words <- t.promoted_words + value
    | _ -> ()
  in
  let lost_events _ring n = t.lost <- t.lost + n in
  t.callbacks <-
    RE.Callbacks.create ~runtime_begin ~runtime_end ~runtime_counter
      ~lost_events ();
  t

let start () =
  RE.start ();
  make (RE.create_cursor None)

let poll t = ignore (RE.read_poll t.cursor t.callbacks None : int)

(* No phase of this domain is open while it runs OCaml code here, and no
   other domain lives between solves; the depths are cleared anyway, so
   a phase cut by the pause can never swallow later ones. *)
let paused t f =
  poll t;
  RE.pause ();
  Fun.protect
    ~finally:(fun () ->
      RE.resume ();
      Hashtbl.reset t.depth)
    f

let take t =
  poll t;
  let s =
    {
      pause_s = Int64.to_float t.pause_ns *. 1e-9;
      minors = t.minors;
      minor_words = t.minor_words;
      promoted_words = t.promoted_words;
      lost = t.lost;
    }
  in
  t.pause_ns <- 0L;
  t.minors <- 0;
  t.minor_words <- 0;
  t.promoted_words <- 0;
  t.lost <- 0;
  s

let close t = RE.free_cursor t.cursor
