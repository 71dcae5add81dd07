module Truthtable = Ovo_boolfun.Truthtable
module Compact = Ovo_core.Compact
module Json = Ovo_obs.Json
module Trace = Ovo_obs.Trace

type entry = {
  canon : Truthtable.t;
  mincost : int;
  size : int;
  canon_order : int array;
  widths : int array;
}

(* The key pairs the digest with the diagram kind: the same function has
   different optimal orderings as a BDD and as a ZDD. *)
type key = string * Compact.kind

type t = {
  m : Mutex.t;
  lru : (key, entry) Lru.t;
  trace : Trace.t;
  persist : (digest:string -> kind:Compact.kind -> entry -> unit) option;
  mutable hits : int;
  mutable misses : int;
  mutable collisions : int;
}

let create ?(trace = Trace.null) ?persist ~cap () =
  { m = Mutex.create (); lru = Lru.create ~cap; trace; persist; hits = 0;
    misses = 0; collisions = 0 }

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let find t ~digest ~kind ~canon =
  with_lock t (fun () ->
      match Lru.find t.lru (digest, kind) with
      | Some e when Truthtable.equal e.canon canon ->
          t.hits <- t.hits + 1;
          Some e
      | Some _ ->
          (* same digest, different table: a hash collision (or a
             corrupt warm-loaded record).  Count it — and degrade to a
             miss, never a wrong answer. *)
          t.collisions <- t.collisions + 1;
          t.misses <- t.misses + 1;
          Trace.counter t.trace "cache.collision"
            (float_of_int t.collisions);
          None
      | None ->
          t.misses <- t.misses + 1;
          None)

let mem t ~digest ~kind ~canon =
  with_lock t (fun () ->
      match Lru.find t.lru (digest, kind) with
      | Some e -> Truthtable.equal e.canon canon
      | None -> false)

let add t ~digest ~kind entry =
  with_lock t (fun () -> Lru.add t.lru (digest, kind) entry);
  (* outside the lock: the persist hook does file I/O *)
  match t.persist with
  | None -> ()
  | Some persist -> persist ~digest ~kind entry

let warm t ~digest ~kind entry =
  with_lock t (fun () -> Lru.add t.lru (digest, kind) entry)

let capacity t = Lru.capacity t.lru
let length t = with_lock t (fun () -> Lru.length t.lru)
let hits t = with_lock t (fun () -> t.hits)
let misses t = with_lock t (fun () -> t.misses)
let collisions t = with_lock t (fun () -> t.collisions)
let evictions t = with_lock t (fun () -> Lru.evictions t.lru)

let hit_rate t =
  with_lock t (fun () ->
      let total = t.hits + t.misses in
      if total = 0 then 0. else float_of_int t.hits /. float_of_int total)

let to_json t =
  with_lock t (fun () ->
      let total = t.hits + t.misses in
      let rate =
        if total = 0 then 0. else float_of_int t.hits /. float_of_int total
      in
      Json.Obj
        [ ("capacity", Json.Int (Lru.capacity t.lru));
          ("length", Json.Int (Lru.length t.lru));
          ("hits", Json.Int t.hits);
          ("misses", Json.Int t.misses);
          ("collisions", Json.Int t.collisions);
          ("evictions", Json.Int (Lru.evictions t.lru));
          ("hit_rate", Json.Float rate) ])
