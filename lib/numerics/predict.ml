(* Exact cells for FS* from a base with [free] unassigned variables over
   a [j]-element J, stopped at cardinality [upto]:
   sum over i <= upto of C(j,i)·i·2^(free-i). *)
let fs_star_cells ~free ~j ~upto =
  let acc = ref 0. in
  for i = 1 to upto do
    acc :=
      !acc
      +. Maths.binomial j i *. float_of_int i *. Maths.pow2 (float_of_int (free - i))
  done;
  !acc

let fs_cells n = fs_star_cells ~free:n ~j:n ~upto:n

let factorial n =
  let rec loop i acc = if i > n then acc else loop (i + 1) (acc *. float_of_int i) in
  loop 2 1.

let eval_order_cells n = Maths.pow2 (float_of_int n) -. 1.

let brute_force_cells n = factorial n *. eval_order_cells n

let log2_cost_per_var points =
  match points with
  | [] | [ _ ] -> invalid_arg "Predict.log2_cost_per_var: need two points"
  | _ ->
      let m = float_of_int (List.length points) in
      let sx = List.fold_left (fun a (n, _) -> a +. float_of_int n) 0. points in
      let sy = List.fold_left (fun a (_, c) -> a +. Maths.log2 c) 0. points in
      let sxx =
        List.fold_left (fun a (n, _) -> a +. (float_of_int n *. float_of_int n)) 0. points
      in
      let sxy =
        List.fold_left (fun a (n, c) -> a +. (float_of_int n *. Maths.log2 c)) 0. points
      in
      ((m *. sxy) -. (sx *. sy)) /. ((m *. sxx) -. (sx *. sx))

(* The Lemma 6 query count, max 1 (round (sqrt (N log2(1/eps)))); must
   mirror Ovo_quantum.Qsearch.queries_bound ([n] is a float so
   astronomically large candidate spaces stay representable). *)
let quantum_queries ~n ~epsilon =
  if n <= 0. then invalid_arg "Predict.quantum_queries";
  let eps = if epsilon <= 0. then 1e-300 else min epsilon 0.5 in
  Float.max 1. (Float.round (sqrt (n *. (-.log eps /. log 2.))))

(* A subroutine's cost of extending a compaction state with [free]
   unassigned variables over a [j]-element block; classical FS* first. *)
let fs_star_cost ~free ~j = if j = 0 then 0. else fs_star_cells ~free ~j ~upto:j

(* must mirror Opt_obdd.division_points *)
let division_points ~alpha n' =
  let clamped =
    Array.to_list alpha
    |> List.map (fun a ->
           let v = int_of_float (Float.round (a *. float_of_int n')) in
           max 1 (min (n' - 1) v))
  in
  let rec dedup last = function
    | [] -> []
    | v :: rest -> if v > last then v :: dedup v rest else dedup last rest
  in
  dedup 0 (List.sort compare clamped)

(* Modeled cost of OptOBDD*_gamma(k, alpha) over a given inner
   subroutine; mirrors Ovo_quantum.Opt_obdd.opt_obdd including its
   division-point rounding and de-duplication. *)
let opt_obdd_cost ~epsilon ~alpha inner ~free ~j =
  if j = 0 then 0.
  else
    match division_points ~alpha j with
    | [] -> fs_star_cost ~free ~j
    | b ->
        let b = Array.of_list b in
        let m = Array.length b in
        let pre = fs_star_cells ~free ~j ~upto:b.(0) in
        (* level sizes: l_t = b.(t-1) for t <= m, l_(m+1) = j *)
        let level_size t = if t = m + 1 then j else b.(t - 1) in
        let rec cost t =
          if t = 1 then 0.
          else
            let l = level_size t and k = level_size (t - 1) in
            let candidates = Float.round (Maths.binomial l k) in
            let oracle =
              cost (t - 1) +. inner ~free:(free - k) ~j:(l - k)
            in
            quantum_queries ~n:candidates ~epsilon *. Float.max oracle 1.
        in
        pre +. cost (m + 1)

let theorem10_cost ~epsilon ~alpha n =
  opt_obdd_cost ~epsilon ~alpha fs_star_cost ~free:n ~j:n

let tower_cost ~epsilon ~alphas ~depth n =
  if depth < 1 || depth > Array.length alphas then
    invalid_arg "Predict.tower_cost";
  let rec build i =
    let inner = if i = 0 then fs_star_cost else build (i - 1) in
    opt_obdd_cost ~epsilon ~alpha:alphas.(i) inner
  in
  (build (depth - 1)) ~free:n ~j:n
