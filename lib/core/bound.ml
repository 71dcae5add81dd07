exception Pruned_out of string

type lower = {
  lb_source : string;
  remaining : Varset.t -> int;
  exact_completion : Varset.t -> int option;
}

type upper = { ub_source : string; ub_value : int }

type layer_stat = {
  ls_layer : int;
  ls_kept : int;
  ls_pruned : int;
  ls_lower : int;
  ls_incumbent : int;
}

type t = {
  lower : lower;
  seed : upper option;
  incumbent : int Atomic.t;
  pruned : int Atomic.t;
  mutable stats_rev : layer_stat list;
}

(* A variable is [relevant] when every diagram of the function — under
   any ordering — must carry at least one node labelled with it.  For a
   BDD that is classic support: some input pair differing only in the
   variable maps to different values.  For a ZDD the elision rule kills
   [hi = 0] nodes instead, so the witness is a point with the variable
   set and a non-zero value: evaluation must survive that variable, so a
   node labelled with it (with a non-zero hi) sits on the path. *)
let relevant kind mt =
  let n = Ovo_boolfun.Mtable.arity mt in
  let size = 1 lsl n in
  let rel = ref Varset.empty in
  for i = 0 to n - 1 do
    let bit = 1 lsl i in
    let found = ref false in
    let code = ref 0 in
    while (not !found) && !code < size do
      (match kind with
      | Compact.Bdd ->
          if
            !code land bit = 0
            && Ovo_boolfun.Mtable.eval mt !code
               <> Ovo_boolfun.Mtable.eval mt (!code lor bit)
          then found := true
      | Compact.Zdd ->
          if !code land bit <> 0 && Ovo_boolfun.Mtable.eval mt !code <> 0 then
            found := true);
      incr code
    done;
    if !found then rel := Varset.add i !rel
  done;
  !rel

let source_of = function
  | Compact.Bdd -> "support-count"
  | Compact.Zdd -> "zdd-live-count"

(* The admissibility argument works directly on any completed diagram:
   each relevant free variable labels >= 1 node there, and every node
   labelled by a currently-free variable is created by the remaining
   compactions — so the remaining cost is >= the relevant-free count
   (with weights, >= their summed weights).
   When no relevant variable is free the completion is exactly free of
   charge: every remaining compaction elides its whole table. *)
let counting_lower ?weights kind mt =
  let rel = relevant kind mt in
  let lb_source, weight =
    match weights with
    | None -> (source_of kind, fun _ -> 1)
    | Some w -> ("weighted-" ^ source_of kind, fun i -> w.(i))
  in
  {
    lb_source;
    remaining =
      (fun free -> Varset.fold (fun i acc -> acc + weight i) (Varset.inter rel free) 0);
    exact_completion =
      (fun free -> if Varset.disjoint rel free then Some 0 else None);
  }

let make ?seed lower =
  {
    lower;
    seed;
    incumbent =
      Atomic.make
        (match seed with Some u -> u.ub_value | None -> max_int);
    pruned = Atomic.make 0;
    stats_rev = [];
  }

let incumbent t = Atomic.get t.incumbent
let remaining t free = t.lower.remaining free
let exact_completion t free = t.lower.exact_completion free
let source t = t.lower.lb_source

(* lock-free monotone min — the Par workers only read, but exact
   completions observed after a layer join race with nobody anyway *)
let observe t v =
  let rec go () =
    let cur = Atomic.get t.incumbent in
    if v < cur && not (Atomic.compare_and_set t.incumbent cur v) then go ()
  in
  go ()

let note_pruned t k = ignore (Atomic.fetch_and_add t.pruned k)
let states_pruned t = Atomic.get t.pruned
let record_layer t ls = t.stats_rev <- ls :: t.stats_rev
let layer_stats t = List.rev t.stats_rev

let best_lower t =
  match t.stats_rev with [] -> 0 | s :: _ -> min s.ls_lower (incumbent t)

let anytime t = (best_lower t, incumbent t)

let check_final t cost =
  match t.seed with
  | Some u when cost > u.ub_value ->
      raise
        (Pruned_out
           (Printf.sprintf
              "Bound: final cost %d exceeds the seeded upper bound %d (%s) — \
               the bound provider is unsound"
              cost u.ub_value u.ub_source))
  | Some _ | None -> ()

let to_args t =
  let seed_args =
    match t.seed with
    | None -> [ ("seed_source", Ovo_obs.Json.String "none") ]
    | Some u ->
        [
          ("seed_source", Ovo_obs.Json.String u.ub_source);
          ("seed_value", Ovo_obs.Json.Int u.ub_value);
        ]
  in
  [
    ("bound_source", Ovo_obs.Json.String t.lower.lb_source);
    ("states_pruned", Ovo_obs.Json.Int (states_pruned t));
    ( "incumbent",
      if incumbent t = max_int then Ovo_obs.Json.Null
      else Ovo_obs.Json.Int (incumbent t) );
  ]
  @ seed_args

let to_json_value t =
  let layers =
    List.map
      (fun ls ->
        Ovo_obs.Json.Obj
          [
            ("k", Ovo_obs.Json.Int ls.ls_layer);
            ("kept", Ovo_obs.Json.Int ls.ls_kept);
            ("pruned", Ovo_obs.Json.Int ls.ls_pruned);
            ("lower", Ovo_obs.Json.Int ls.ls_lower);
            ("incumbent", Ovo_obs.Json.Int ls.ls_incumbent);
          ])
      (layer_stats t)
  in
  Ovo_obs.Json.Obj (to_args t @ [ ("layers", Ovo_obs.Json.List layers) ])

let pp ppf t =
  Format.fprintf ppf "bound=%s pruned=%d incumbent=%s seed=%s"
    t.lower.lb_source (states_pruned t)
    (if incumbent t = max_int then "inf" else string_of_int (incumbent t))
    (match t.seed with
    | None -> "none"
    | Some u -> Printf.sprintf "%s:%d" u.ub_source u.ub_value)
