let identity n = Array.init n (fun i -> i)

(* Heap's algorithm, iterative over the recursion stack array. *)
let iter_all n f =
  let a = identity n in
  let c = Array.make n 0 in
  f a;
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let i = ref 0 in
  while !i < n do
    if c.(!i) < !i then begin
      if !i land 1 = 0 then swap 0 !i else swap c.(!i) !i;
      f a;
      c.(!i) <- c.(!i) + 1;
      i := 0
    end
    else begin
      c.(!i) <- 0;
      incr i
    end
  done

let random st n =
  let a = identity n in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let move p ~from ~to_ =
  let n = Array.length p in
  if from < 0 || from >= n || to_ < 0 || to_ >= n then invalid_arg "Perm.move";
  let v = p.(from) in
  let q = Array.make n 0 in
  let src = ref 0 in
  for dst = 0 to n - 1 do
    if dst = to_ then q.(dst) <- v
    else begin
      if !src = from then incr src;
      q.(dst) <- p.(!src);
      incr src
    end
  done;
  q

let count n =
  let rec loop i acc = if i > n then acc else loop (i + 1) (acc *. float_of_int i) in
  loop 2 1.
