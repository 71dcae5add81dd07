type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;  (* towards MRU *)
  mutable next : ('k, 'v) node option;  (* towards LRU *)
}

type ('k, 'v) t = {
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  cap : int;
  mutable head : ('k, 'v) node option;  (* most recently used *)
  mutable tail : ('k, 'v) node option;  (* least recently used *)
  mutable evicted : int;
}

let create ~cap =
  if cap <= 0 then invalid_arg "Lru.create: capacity must be positive";
  { tbl = Hashtbl.create (min cap 64); cap; head = None; tail = None;
    evicted = 0 }

let capacity t = t.cap
let length t = Hashtbl.length t.tbl
let evictions t = t.evicted
let mem t k = Hashtbl.mem t.tbl k

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some nx -> nx.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> ());
  t.head <- Some node;
  if t.tail = None then t.tail <- Some node

let touch t node =
  match t.head with
  | Some h when h == node -> ()
  | _ ->
      unlink t node;
      push_front t node

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> None
  | Some node ->
      touch t node;
      Some node.value

let drop_lru t =
  match t.tail with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.tbl node.key;
      t.evicted <- t.evicted + 1

let add t k v =
  match Hashtbl.find_opt t.tbl k with
  | Some node ->
      node.value <- v;
      touch t node
  | None ->
      if Hashtbl.length t.tbl >= t.cap then drop_lru t;
      let node = { key = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.tbl k node;
      push_front t node

