module B = Ovo_core.Bound
module C = Ovo_core.Compact
module Mtable = Ovo_boolfun.Mtable

let sifting_upper ?trace ?kind mt =
  { B.ub_source = "sifting"; ub_value = (Sifting.run ?trace ?kind mt).mincost }

let bound ?trace ?(kind = C.Bdd) tt =
  let mt = Mtable.of_truthtable tt in
  B.make ~seed:(sifting_upper ?trace ~kind mt) (B.counting_lower kind mt)

(* Replaying any permutation bottom-up gives an achievable weighted
   total, so either reading of the heuristic order's direction yields a
   sound seed — take the cheaper of the two. *)
let weighted_cost_of_chain ~kind ~weights mt order =
  C.weighted_cost ~weights
    (C.compact_chain ~metrics:(Ovo_core.Metrics.create ()) (C.initial kind mt)
       order)

let weighted_bound ?trace ?(kind = C.Bdd) ~weights mt =
  Ovo_core.Fs.check_weights ~n:(Mtable.arity mt) weights;
  let r = Sifting.run ?trace ~kind mt in
  let rev = Array.of_list (List.rev (Array.to_list r.order)) in
  let ub_value =
    min
      (weighted_cost_of_chain ~kind ~weights mt r.order)
      (weighted_cost_of_chain ~kind ~weights mt rev)
  in
  B.make
    ~seed:{ B.ub_source = "sifting-weighted"; ub_value }
    (B.counting_lower ~weights kind mt)
