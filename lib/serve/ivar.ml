type 'a t = {
  m : Mutex.t;
  c : Condition.t;
  mutable v : 'a option;
}

let create () = { m = Mutex.create (); c = Condition.create (); v = None }

let fill t x =
  Mutex.lock t.m;
  (match t.v with
  | None ->
      t.v <- Some x;
      Condition.broadcast t.c
  | Some _ -> ());
  Mutex.unlock t.m

let read t =
  Mutex.lock t.m;
  let rec get () =
    match t.v with
    | Some x -> x
    | None ->
        Condition.wait t.c t.m;
        get ()
  in
  let x = get () in
  Mutex.unlock t.m;
  x
