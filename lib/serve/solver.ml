module Truthtable = Ovo_boolfun.Truthtable
module Cancel = Ovo_core.Cancel
module Fs = Ovo_core.Fs
module Trace = Ovo_obs.Trace
module Json = Ovo_obs.Json

type solved = {
  digest : string;
  mincost : int;
  size : int;
  order : int array;
  widths : int array;
  cached : bool;
}

let is_pow2 k = k > 0 && k land (k - 1) = 0

let cached cache tt =
  match cache with
  | None -> false
  | Some (cache, kind) ->
      let canon, _ = Truthtable.canonicalize tt in
      Cache.mem cache ~digest:(Truthtable.digest_of_canonical canon) ~kind
        ~canon

let parse_table ?mem_budget ?cache ~max_arity s =
  let len = String.length s in
  if not (is_pow2 len) then
    Error (`Bad (Printf.sprintf "table length %d is not a power of two" len))
  else
    match Truthtable.of_string s with
    | exception Invalid_argument _ ->
        Error (`Bad "table must contain only '0' and '1'")
    | tt -> (
        let n = Truthtable.arity tt in
        if n > max_arity then
          Error
            (`Too_large
               (Printf.sprintf "arity %d exceeds the server limit of %d" n
                  max_arity))
        else
          let limit cap =
            "the server's --mem-budget " ^ Ovo_core.Membudget.pp_bytes cap
          in
          match
            Option.bind mem_budget (fun cap ->
                Ovo_core.Membudget.refusal ~n ~limit:(limit cap) cap)
          with
          | Some m when not (cached cache tt) -> Error (`Too_large m)
          | _ -> Ok tt)

(* Fs results are read-last-first ([order.(0)] at the bottom); the wire
   carries root-first.  [perm] maps canonical variables back to the
   request's: canon variable [j] is request variable [perm.(j)]. *)
let reply_of_entry ~digest ~perm ~cached (e : Cache.entry) =
  let m = Array.length e.canon_order in
  let order = Array.make m 0 and widths = Array.make m 0 in
  for j = 0 to m - 1 do
    order.(j) <- perm.(e.canon_order.(m - 1 - j));
    widths.(j) <- e.widths.(m - 1 - j)
  done;
  { digest; mincost = e.mincost; size = e.size; order; widths; cached }

let solve ?(trace = Trace.null) ?(prune = false)
    ?(orderer = `Exact) ?stats ~cache ~cancel ~engine ~kind tt =
  (* the pruning context outlives [Cancel.protect]: a deadline-expired
     pruned solve still reports its best (lower, incumbent) pair — the
     any-time payoff of seeding before the sweep *)
  let bound_ref = ref None in
  let note_pruned () =
    match (stats, !bound_ref) with
    | Some st, Some b -> Stats.add_pruned st (Ovo_core.Bound.states_pruned b)
    | _ -> ()
  in
  let on_layer =
    Option.map
      (fun st (p : Ovo_core.Subset_dp.progress) ->
        Stats.note_layer st ~layer:p.Ovo_core.Subset_dp.p_layer
          ~states:(Array.length p.Ovo_core.Subset_dp.p_entries))
      stats
  in
  match
    Cancel.protect cancel (fun () ->
        Cancel.check cancel;
        let canon, perm =
          Trace.with_span trace ~cat:"serve" "serve.canon" (fun () ->
              Truthtable.canonicalize tt)
        in
        let digest = Truthtable.digest_of_canonical canon in
        let probe =
          Trace.with_span trace ~cat:"serve"
            ~args:(fun () -> [ ("digest", Json.String digest) ])
            "serve.cache_probe"
            (fun () -> Cache.find cache ~digest ~kind ~canon)
        in
        Option.iter
          (fun st -> Stats.note_probe st ~hit:(probe <> None))
          stats;
        match probe with
        | Some entry -> reply_of_entry ~digest ~perm ~cached:true entry
        | None when orderer = `Scored ->
            (* deadline-tight fast path: answer with the scored static
               ordering — a valid ordering and an achievable cost, not a
               proven optimum, so it must never enter the exact cache *)
            Cancel.check cancel;
            let entry =
              Trace.with_span trace ~cat:"serve" "serve.scored" (fun () ->
                  let order = Ovo_learn.Scorer.order canon in
                  { Cache.canon;
                    mincost = Ovo_core.Eval_order.mincost ~kind canon order;
                    size = Ovo_core.Eval_order.size ~kind canon order;
                    canon_order = order;
                    widths = Ovo_core.Eval_order.widths ~kind canon order })
            in
            reply_of_entry ~digest ~perm ~cached:false entry
        | None ->
            Cancel.check cancel;
            let pr =
              if not prune then None
              else begin
                (* scored incumbent first (free), sifting refines it *)
                let b =
                  Trace.with_span trace ~cat:"serve" "serve.seed" (fun () ->
                      Ovo_learn.Scorer.seeded_bound ~trace ~kind canon)
                in
                bound_ref := Some b;
                Some b
              end
            in
            let r =
              Trace.with_span trace ~cat:"serve" "serve.solve" (fun () ->
                  Fs.run ~trace ~kind ~engine ~cancel ?prune:pr ?on_layer
                    canon)
            in
            note_pruned ();
            let entry =
              { Cache.canon; mincost = r.mincost; size = r.size;
                canon_order = r.order; widths = r.widths }
            in
            Cache.add cache ~digest ~kind entry;
            reply_of_entry ~digest ~perm ~cached:false entry)
  with
  | Ok s -> Ok s
  | Error `Cancelled ->
      note_pruned ();
      Error (`Cancelled (Option.map Ovo_core.Bound.anytime !bound_ref))
