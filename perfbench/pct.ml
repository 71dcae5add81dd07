(* Order statistics for the benchmark's timings.  Percentiles are
   nearest-rank: the p-th percentile of n samples is the sample at
   1-based rank ceil(p·n/100) in ascending order, so it is always a
   value that was measured. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let rank ~p n = max 1 ((p * n + 99) / 100)

let nearest_rank ~p xs =
  match sorted xs with
  | [||] -> invalid_arg "Pct.nearest_rank: no samples"
  | a -> a.(rank ~p (Array.length a) - 1)

let beyond ~p n = n - rank ~p n

(* A tail percentile is only worth quoting when at least ten samples lie
   beyond it; below that it is one or two outliers. *)
let reportable ~p n = n > 0 && beyond ~p n >= 10

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Pct.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median_or_zero = function [] -> 0. | xs -> median xs
