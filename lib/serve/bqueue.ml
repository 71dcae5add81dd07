exception Closed

type 'a t = {
  m : Mutex.t;
  nonempty : Condition.t;
  q : 'a Queue.t;
  cap : int;
  mutable closed : bool;
}

let create ~cap =
  if cap <= 0 then invalid_arg "Bqueue.create: capacity must be positive";
  { m = Mutex.create (); nonempty = Condition.create (); q = Queue.create ();
    cap; closed = false }

let capacity t = t.cap

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let length t = with_lock t (fun () -> Queue.length t.q)

let try_push t x =
  with_lock t (fun () ->
      if t.closed then raise Closed;
      if Queue.length t.q >= t.cap then `Full
      else begin
        Queue.push x t.q;
        Condition.signal t.nonempty;
        `Pushed
      end)

let pop t =
  with_lock t (fun () ->
      while Queue.is_empty t.q && not t.closed do
        Condition.wait t.nonempty t.m
      done;
      if Queue.is_empty t.q then None else Some (Queue.pop t.q))

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)
