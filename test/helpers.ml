(* Shared test utilities: fixed-seed RNGs, QCheck generators for the
   repository's core types, and brute-force reference computations. *)

let rng seed = Random.State.make [| 0xC0FFEE; seed |]

(* --- QCheck generators ------------------------------------------------ *)

(* A truth table over [lo..hi] variables. *)
let gen_truthtable ?(lo = 1) ?(hi = 6) () =
  let open QCheck.Gen in
  int_range lo hi >>= fun n ->
  string_size ~gen:(oneofl [ '0'; '1' ]) (return (1 lsl n)) >|= fun bits ->
  Ovo_boolfun.Truthtable.of_string bits

let arb_truthtable ?lo ?hi () =
  QCheck.make
    ~print:(fun tt -> Ovo_boolfun.Truthtable.to_string tt)
    (gen_truthtable ?lo ?hi ())

let gen_mtable ?(lo = 1) ?(hi = 5) ?(values = 3) () =
  let open QCheck.Gen in
  int_range lo hi >>= fun n ->
  array_size (return (1 lsl n)) (int_range 0 (values - 1)) >|= fun cells ->
  Ovo_boolfun.Mtable.of_array ~values cells

let arb_mtable ?lo ?hi ?values () =
  QCheck.make
    ~print:(fun mt -> Format.asprintf "%a" Ovo_boolfun.Mtable.pp mt)
    (gen_mtable ?lo ?hi ?values ())

let gen_expr ?(vars = 5) ?(depth = 5) () =
  let open QCheck.Gen in
  int_range 0 1000000 >|= fun seed ->
  Ovo_boolfun.Expr.random (rng seed) ~vars ~depth

let arb_expr ?vars ?depth () =
  QCheck.make ~print:Ovo_boolfun.Expr.to_string (gen_expr ?vars ?depth ())

(* A permutation of [0..n-1] derived from a seed. *)
let perm_of_seed seed n =
  let st = rng seed in
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* --- brute-force references ------------------------------------------- *)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
        l

let all_orders n = List.map Array.of_list (permutations (List.init n (fun i -> i)))

(* Minimum diagram cost over all orderings, via the compaction chain. *)
let brute_mincost ?kind tt =
  let n = Ovo_boolfun.Truthtable.arity tt in
  List.fold_left
    (fun acc order -> min acc (Ovo_core.Eval_order.mincost ?kind tt order))
    max_int (all_orders n)

let brute_mincost_mtable ?(kind = Ovo_core.Compact.Bdd) mt =
  let n = Ovo_boolfun.Mtable.arity mt in
  let base = Ovo_core.Compact.initial kind mt in
  let metrics = Ovo_core.Metrics.create () in
  List.fold_left
    (fun acc order ->
      min acc
        (Ovo_core.Compact.compact_chain ~metrics base order)
          .Ovo_core.Compact.mincost)
    max_int (all_orders n)

(* [MINCOST_I] for every [I ⊆ \[n\]]: the full DP table of one
   [Subset_dp.run] sweep, read subset by subset. *)
let all_mincosts ?engine ?metrics tt =
  let module Sdp = Ovo_core.Subset_dp in
  let n = Ovo_boolfun.Truthtable.arity tt in
  let base = Ovo_core.Compact.of_truthtable Ovo_core.Compact.Bdd tt in
  let run = Sdp.run ?engine ?metrics ~base (Ovo_core.Varset.full n) in
  let all = Hashtbl.create (1 lsl n) in
  for i_set = 0 to Ovo_core.Varset.full n do
    Hashtbl.replace all i_set (Sdp.mincost run.Sdp.table i_set)
  done;
  all

(* The weighted objective of a [Fs.run ~weights] result:
   [Σ_j weights.(order.(j)) · widths.(j)]. *)
let weighted_cost ~weights (r : Ovo_core.Fs.result) =
  let cost = ref 0 in
  Array.iteri
    (fun j v -> cost := !cost + (weights.(v) * r.Ovo_core.Fs.widths.(j)))
    r.Ovo_core.Fs.order;
  !cost

(* --- alcotest plumbing ------------------------------------------------- *)

let qtests props = List.map QCheck_alcotest.to_alcotest props

let case name f = Alcotest.test_case name `Quick f

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Whether [sub] occurs in [s]. *)
let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0
