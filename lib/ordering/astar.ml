module C = Ovo_core.Compact
module V = Ovo_core.Varset

type result = {
  mincost : int;
  order : int array;
  expanded : int;
  generated : int;
  subsets_total : int;
}

(* Open list: a sorted set of (f, -g, mask) triples — on equal f the
   deeper node (larger g, i.e. more variables placed) pops first, which
   makes the search dive straight through zero-cost plateaus (variables
   outside the support).  The mask makes entries unique; stale entries
   (superseded g for the same mask) are skipped on pop. *)
module Frontier = Set.Make (struct
  type t = int * int * V.t

  let compare = compare
end)

let run ?(trace = Ovo_obs.Trace.null) ?(metrics = Ovo_core.Metrics.create ())
    ?(kind = C.Bdd) tt =
  let n = Ovo_boolfun.Truthtable.arity tt in
  let goal = V.full n in
  (* the admissible heuristic is the shared counting bound of
     {!Ovo_core.Bound} — the same implementation the branch-and-bound
     DP sweep and the quantum tower prune with *)
  let lb =
    Ovo_core.Bound.counting_lower kind
      (Ovo_boolfun.Mtable.of_truthtable tt)
  in
  let h iset = lb.Ovo_core.Bound.remaining (V.diff goal iset) in
  let base = C.of_truthtable kind tt in
  let states : (V.t, C.state) Hashtbl.t = Hashtbl.create 256 in
  let best_g : (V.t, int) Hashtbl.t = Hashtbl.create 256 in
  let closed : (V.t, unit) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.replace states V.empty base;
  Hashtbl.replace best_g V.empty 0;
  let frontier = ref (Frontier.singleton (h V.empty, 0, V.empty)) in
  let expanded = ref 0 and generated = ref 0 in
  let max_depth = ref (-1) in
  let rec search () =
    match Frontier.min_elt_opt !frontier with
    | None -> failwith "Astar.run: frontier exhausted before the goal"
    | Some ((_, neg_g, iset) as entry) ->
        let g = -neg_g in
        frontier := Frontier.remove entry !frontier;
        if Hashtbl.mem closed iset || Hashtbl.find best_g iset < g then
          search ()
        else if iset = goal then Hashtbl.find states iset
        else begin
          Hashtbl.replace closed iset ();
          incr expanded;
          (* progress event: first time the search reaches a new depth
             (variables placed) — at most [n]+1 of these per run *)
          let depth = V.cardinal iset in
          if depth > !max_depth then begin
            max_depth := depth;
            Ovo_obs.Trace.instant trace ~cat:"heur"
              ~args:(fun () ->
                [
                  ("depth", Ovo_obs.Json.Int depth);
                  ("g", Ovo_obs.Json.Int g);
                  ("expanded", Ovo_obs.Json.Int !expanded);
                ])
              "astar.depth"
          end;
          let state = Hashtbl.find states iset in
          (* drop the table of a closed interior node only after its
             successors are built; successors keep their own tables *)
          V.iter
            (fun i ->
              let child = C.compact ~metrics state i in
              incr generated;
              let cset = V.add i iset in
              let cg = child.C.mincost in
              let better =
                match Hashtbl.find_opt best_g cset with
                | Some old -> cg < old
                | None -> true
              in
              if better && not (Hashtbl.mem closed cset) then begin
                Hashtbl.replace best_g cset cg;
                Hashtbl.replace states cset child;
                frontier := Frontier.add (cg + h cset, -cg, cset) !frontier
              end)
            (V.diff goal iset);
          Hashtbl.remove states iset;
          search ()
        end
  in
  let final =
    Ovo_obs.Trace.with_span trace ~cat:"heur"
      ~args:(fun () ->
        [
          ("n", Ovo_obs.Json.Int n);
          ("expanded", Ovo_obs.Json.Int !expanded);
          ("generated", Ovo_obs.Json.Int !generated);
        ])
      "astar.run" search
  in
  {
    mincost = final.C.mincost;
    order = Array.of_list (C.order final);
    expanded = !expanded;
    generated = !generated;
    subsets_total = 1 lsl n;
  }
