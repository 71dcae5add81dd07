module Trace = Ovo_obs.Trace
module Extent = Layer_pack.Extent

type progress = {
  p_layer : int;
  p_entries : (Varset.t * int * int) array;
}

(* The cost/choice store of one sweep: layer [k] is one whole-layer
   {!Layer_pack.Extent} (9 bytes per subset, indexed by colex rank),
   charged to the sweep's {!Membudget} when it is created and released
   with the table.  The sweep's workers write each subset's winner into
   it at the subset's own rank, so the extent is the layer. *)
module Layers = struct
  type t = {
    j_set : Varset.t;
    base_cost : int;
    mb : Membudget.t;
    pascal : int array array;  (* shared rank/unrank table, k up to [upto] *)
    members : int array;  (* [j_set]'s members by position *)
    slots : Extent.t option array;  (* indexed by cardinality; 0 unused *)
  }

  let create ~mb ~base_cost ~upto j_set =
    {
      j_set;
      base_cost;
      mb;
      pascal = Layer_pack.pascal_table ~m:(Varset.cardinal j_set) ~k:upto;
      members = Array.of_list (Varset.elements j_set);
      slots = Array.make (upto + 1) None;
    }

  let rank t ksub = Layer_pack.rank_in ~pascal:t.pascal ~j_set:t.j_set ksub
  let unrank t ~k r = Layer_pack.unrank_in ~pascal:t.pascal ~j_set:t.j_set ~k r

  (* Layer [k]'s extent, empty, charged as it is created. *)
  let add t ~k =
    let x =
      Extent.create ~j_set:t.j_set ~k
        ~total:(Layer_pack.binomial (Array.length t.members) k)
    in
    Membudget.grew t.mb (Extent.size_bytes x);
    Membudget.note_layer_bytes t.mb (Extent.size_bytes x);
    t.slots.(k) <- Some x;
    x

  (* Hand the layers' charge back to the budget: a table is dead once
     its caller has read it, and a budget shared by many sweeps (the
     quantum compositions') must not add up dead tables. *)
  let release t =
    Array.iteri
      (fun k -> function
        | None -> ()
        | Some x ->
            Membudget.shrank t.mb (Extent.size_bytes x);
            t.slots.(k) <- None)
      t.slots

  (* [f ()], releasing [t] if it raises: a sweep that dies (cancelled,
     pruned out) leaves no table for anyone to release later. *)
  let protect t f =
    match f () with
    | r -> r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        release t;
        Printexc.raise_with_backtrace e bt

  let layer t k =
    match t.slots.(k) with
    | None -> invalid_arg "Subset_dp: layer not computed"
    | Some x -> x

  (* Backtrack the recorded tight choices of every [target] (all of one
     cardinality [m]) level by level.  Chains come back
     first-placed-first, ready to replay — and replaying a chain over
     the base yields a state bit-identical to the one the sweep
     materialised for its subset: node ids are assigned in scan order, a
     deterministic function of the placement sequence alone. *)
  let chains t targets =
    let m =
      if Array.length targets = 0 then 0 else Varset.cardinal targets.(0)
    in
    let subs = Array.copy targets in
    let acc = Array.make (Array.length targets) [] in
    for k = m downto 1 do
      let x = layer t k in
      Array.iteri
        (fun i sub ->
          let h = Extent.choice x ~rank:(rank t sub) in
          acc.(i) <- h :: acc.(i);
          subs.(i) <- Varset.remove h sub)
        subs
    done;
    acc
end

(* The sweep's packed table is the {!Layers} store itself, read by
   rank. *)
type table = Layers.t

let release = Layers.release

let mincost (t : table) ksub =
  let k = Varset.cardinal ksub in
  if
    (not (Varset.subset ksub t.Layers.j_set))
    || k >= Array.length t.Layers.slots
  then invalid_arg "Subset_dp.mincost: subset outside the computed layers";
  if k = 0 then t.Layers.base_cost
  else
    let x = Layers.layer t k and r = Layers.rank t ksub in
    if not (Extent.mem x ~rank:r) then
      raise (Bound.Pruned_out "Subset_dp.mincost: the subset was pruned");
    Extent.cost x ~rank:r

type t = {
  j_set : Varset.t;
  upto : int;
  table : table;
  layer : (Varset.t, Compact.state) Hashtbl.t;
}

(* The objective of a full state: its node count, or with [weights] the
   weighted count of its levels (Lemma 3). *)
let objective weights (st : Compact.state) =
  match weights with
  | None -> st.mincost
  | Some weights -> Compact.weighted_cost ~weights st

let validate ~base j_set upto =
  if not (Varset.subset j_set (Compact.free base)) then
    invalid_arg "Subset_dp.run: J not free in the base state";
  let j_size = Varset.cardinal j_set in
  let upto = match upto with None -> j_size | Some k -> k in
  if upto < 0 || upto > j_size then invalid_arg "Subset_dp.run: bad upto";
  upto

(* What every layer step of one sweep reads: [below.(c)] counts the
   base's free variables under [J]'s member at position [c], and a level
   of [width] nodes testing [h] adds [weights.(h) · width] to the
   objective, or [width] without weights. *)
type ctx = {
  layers : Layers.t;
  kind : Compact.kind;
  weights : int array option;
  below : int array;
}

(* One layer of the sweep as the workers leave it: the winners' costs
   and choices in the layer's extent, and each rank's [next_id] (the
   ids its slice holds are below it), [-1] for a pruned rank. *)
type layer = { x : Extent.t; next : int array }

(* The two-pass layer step for the subset K of colex rank [r] in layer
   [k].  Pass 1 probes every candidate [h] for its cost only (Lemma 7
   minimisation), reading the predecessor's cost in [prev]'s extent and
   its slice in [src].  Pass 2 writes the single winner's slice at rank
   [r] of [dst]; the final layer has no [dst] (nothing reads its
   slices).  The winner's cost and choice go into [x] at rank [r], and
   the result — its [next_id], or [-1] when K is pruned — lands at index
   [r] of the layer's next ids.  Ties keep the smallest [h], as the
   one-pass code did.  The previous layer is frozen and each rank owns
   its slice and its entry of [x], so this function is safe on
   Engine.Par workers.

   Pass 1 finds every predecessor K ∖ {h} by rank, with no hashing:
   with c_1 < … < c_k the positions of K's members in J, rank K =
   Σ_j C(c_j, j), and unranking peels the members off from the top.
   Once c_i is peeled the residual rank is Σ_{j<i} C(c_j, j), so
   rank (K ∖ {c_i}) = Σ_{j<i} C(c_j, j) + Σ_{j>i} C(c_j, j−1) is that
   residual plus [above], the shifted sum of the members already
   peeled.  The candidates come largest first, so a tie replaces the
   incumbent choice.  The i−1 members below c_i are assigned in the
   predecessor, so the candidate sits at bit [below.(c) − (i − 1)] of
   its slice's index.  The loop runs on local refs and allocates
   nothing.

   [prune = Some (b, cap, base_free)] turns the step into a
   branch-and-bound one: a pruned predecessor is skipped (a subset
   all of whose predecessors are gone is unreachable and pruned too),
   and a winner whose cost plus admissible remaining bound exceeds the
   incumbent snapshot [cap] is dropped.  [cap] is read once per layer
   on the calling domain, so Par workers prune against the same
   incumbent as Seq and the surviving state set is deterministic.  An
   optimal chain's prefixes always satisfy
   [cost + remaining <= optimum <= cap], so exactly one full-cost
   chain to every optimal target survives and answers stay
   bit-identical (a pruned candidate never beats the surviving tight
   choice, so ties still keep the smallest [h]). *)
let eval_rank ctx ~k ~prev ~x ~src ~dst ~prune metrics r =
  let pascal = ctx.layers.Layers.pascal
  and members = ctx.layers.Layers.members in
  let ksub = Layers.unrank ctx.layers ~k r in
  let rest = ref r and above = ref 0 and c = ref (Array.length members - 1) in
  let best_h = ref (-1) and best_c = ref max_int and best_r = ref (-1) in
  let best_bit = ref 0 and best_w = ref 0 and best_next = ref 0 in
  for i = k downto 1 do
    while pascal.(!c).(i) > !rest do
      decr c
    done;
    rest := !rest - pascal.(!c).(i);
    let h = members.(!c) and pr = !rest + !above in
    let next_id = prev.next.(pr) in
    if next_id >= 0 then begin
      let bit = ctx.below.(!c) - (i - 1) in
      let width = Compact.probe ~metrics ctx.kind src pr ~bit ~next_id in
      let cost = Extent.cost prev.x ~rank:pr in
      let cost =
        match ctx.weights with
        | None -> cost + width
        | Some w -> cost + (w.(h) * width)
      in
      if cost <= !best_c then begin
        best_c := cost;
        best_h := h;
        best_r := pr;
        best_bit := bit;
        best_w := width;
        best_next := next_id
      end
    end;
    above := !above + pascal.(!c).(i - 1)
  done;
  if !best_h < 0 then begin
    assert (Option.is_some prune);
    -1
  end
  else
    let keep =
      match prune with
      | None -> true
      | Some (b, cap, base_free) ->
          !best_c + Bound.remaining b (Varset.diff base_free ksub) <= cap
    in
    if not keep then -1
    else begin
      (match dst with
      | None -> ()
      | Some dst ->
          let width =
            Compact.write ~metrics ctx.kind src !best_r dst r ~bit:!best_bit
              ~next_id:!best_next
          in
          assert (width = !best_w));
      Extent.set x ~rank:r ~cost:!best_c ~choice:!best_h;
      !best_next + !best_w
    end

(* A resume must be a consecutive, complete prefix of layers 1..m with
   every entry a |layer|-subset of J; anything else means the
   checkpoint belongs to a different run.  Returns m (0 when empty). *)
let validate_resume ~upto j_set resume =
  let j_size = Varset.cardinal j_set in
  let expect = ref 1 in
  List.iter
    (fun p ->
      if p.p_layer <> !expect || p.p_layer > upto then
        invalid_arg
          "Subset_dp.run: resume layers must be consecutive from 1";
      if Array.length p.p_entries <> Layer_pack.binomial j_size p.p_layer then
        invalid_arg "Subset_dp.run: resume layer is incomplete";
      Array.iter
        (fun (ksub, _, h) ->
          if
            (not (Varset.subset ksub j_set))
            || Varset.cardinal ksub <> p.p_layer
            || not (Varset.mem h ksub)
          then invalid_arg "Subset_dp.run: resume entry does not match J")
        p.p_entries;
      incr expect)
    resume;
  !expect - 1

(* A checkpointed layer, set into its extent.  [validate_resume]
   checked the entry count, so a repeated subset leaves another one
   missing. *)
let add_progress layers p =
  let x = Layers.add layers ~k:p.p_layer in
  Array.iter
    (fun (ksub, cost, choice) ->
      let rank = Layers.rank layers ksub in
      if Extent.mem x ~rank then
        invalid_arg "Subset_dp.run: resume layer is incomplete";
      Extent.set x ~rank ~cost ~choice)
    p.p_entries;
  x

(* The kept subsets of a layer as checkpoint triples, in rank order. *)
let progress_of layers x =
  let k = Extent.k x and acc = ref [] in
  Extent.iter x (fun ~rank ~cost ~choice ->
      acc := (Layers.unrank layers ~k rank, cost, choice) :: !acc);
  { p_layer = k; p_entries = Array.of_list (List.rev !acc) }

(* The full state of a subset: its recorded chain replayed over the
   base.  Node ids are assigned in scan order, a deterministic
   function of the placement sequence, so the replay is bit-identical
   to the slice the sweep wrote. *)
let replay ~metrics base chain =
  List.fold_left (fun st h -> Compact.materialise ~metrics st h) base chain

(* Replay the chains of every kept subset of the layer [x] of the packed
   table, inside a "dp.rebuild" span; [f r st] receives each state. *)
let rebuild ~trace ~replay table x f =
  let k = Extent.k x in
  Trace.with_span trace ~cat:"dp"
    ~args:(fun () ->
      [
        ("k", Ovo_obs.Json.Int k);
        ("subsets", Ovo_obs.Json.Int (Extent.total x));
      ])
    "dp.rebuild"
    (fun () ->
      let ranks = ref [] in
      Extent.iter x (fun ~rank ~cost:_ ~choice:_ ->
          ranks := rank :: !ranks);
      let ranks = Array.of_list (List.rev !ranks) in
      let chains =
        Layers.chains table (Array.map (Layers.unrank table ~k) ranks)
      in
      Array.iteri (fun i r -> f r (replay chains.(i))) ranks)

(* One full DP sweep.  A layer is its extent, indexed by colex rank,
   plus the next ids of its slices: the workers of one [Engine.map]
   each write their subsets' winners into the extent at their own
   ranks, their slices at the same ranks of the layer's arena buffer,
   and return their next ids, so between two layers the calling domain
   does no hashing, no re-ranking and no packing — only the incumbent
   update.  The final layer writes no slices: its states are rebuilt by
   replay ([run]) or only its table is wanted ([complete]).
   Layer [k] lives in arena buffer [k mod 2] and dies when layer
   [k + 2] overwrites it; only the extents outlive a layer.  A layer's
   cells are 2 bytes when the previous layer's largest [next_id] plus
   the nodes one compaction can add stay within {!Arena.narrow_ids},
   and 4 bytes otherwise.  Layer 0 is the base alone, in an extent of
   its own outside the table.

   The sweep opens one {!Engine.with_pool} sized for its widest layer:
   a Par sweep spawns its worker domains once, the calling domain works
   as participant 0, and every exit path (a result, Cancelled,
   Pruned_out, or an [on_layer] that raises) joins the workers.

   Each layer's extent is created, and charged to [mb], before its map
   starts; nothing reads it until the map has joined, and every rank is
   written by exactly one participant, so the packed bytes — like the
   results they encode — are identical under Seq and Par.

   [on_layer] fires once per completed cardinality layer with that
   layer's (subset, cost, tight choice) triples — the checkpoint
   hook — at the same boundaries [cancel] is polled at.  The triples
   are only built when a hook is given.
   [resume] preloads the packed layers from previously completed
   progress and rebuilds the last layer's slices by replaying the
   recorded choice chains, so the sweep continues exactly where the
   checkpointed run stopped and stays bit-identical to an
   uninterrupted one under both engines.

   With a recording tracer, every cardinality layer is one span
   (category "dp") whose args carry the subset count and the layer's
   metrics delta (merged across domains for Engine.Par; the
   per-participant child spans come from Engine.map).  The whole sweep
   is a parent span.  Probes stay untraced — the tracer's granularity
   floor is a layer, so the disabled-tracer cost on the hot path is
   zero. *)
let sweep ~trace ~engine ~cancel ~metrics ~mb ~prune ~weights ~upto ~on_layer
    ~resume ~(base : Compact.state) j_set =
  (match (prune, resume) with
  | Some _, _ :: _ ->
      (* a checkpoint records complete layers; a pruned sweep neither
         produces nor accepts them *)
      invalid_arg "Subset_dp: pruning cannot resume from a checkpoint"
  | _ -> ());
  let base_free = Compact.free base and base_cost = objective weights base in
  let m = Varset.cardinal j_set in
  let layers = Layers.create ~mb ~base_cost ~upto j_set in
  let ctx =
    {
      layers;
      kind = base.kind;
      weights;
      below =
        Array.map (fun h -> Varset.rank_in h base_free) layers.Layers.members;
    }
  in
  let cells = Array.length base.table in
  let arena = Arena.claim ~cells ~m ~upto in
  Fun.protect ~finally:(fun () -> Arena.release arena) @@ fun () ->
  Layers.protect layers @@ fun () ->
  (* layer [k]'s buffer, for cells holding ids below [bound] *)
  let arena_layer k ~bound =
    Arena.layer arena ~k ~wide:(bound > Arena.narrow_ids)
      ~cells:(cells lsr k) ~slices:(Layer_pack.binomial m k)
  in
  let start_k = validate_resume ~upto j_set resume + 1 in
  let layer =
    let x = Extent.create ~j_set ~k:0 ~total:1 in
    Extent.set x ~rank:0 ~cost:base_cost ~choice:0;
    ref { x; next = [| base.next_id |] }
  in
  List.iter
    (fun p ->
      let x = add_progress layers p in
      layer := { x; next = Array.make (Extent.total x) (-1) })
    resume;
  (* the slices of layer [start_k - 1], if a layer follows it; a
     resumed layer's ids are below the base's plus every cell of the
     layers above it *)
  let src = ref None in
  (if start_k <= upto then
     let k = start_k - 1 in
     if k = 0 then begin
       let l = arena_layer 0 ~bound:base.next_id in
       Compact.load base l 0;
       src := Some l
     end
     else begin
       let l =
         arena_layer k ~bound:(base.next_id + cells - (cells lsr k))
       in
       let { x; next } = !layer in
       rebuild ~trace ~replay:(replay ~metrics base) layers x (fun r st ->
           assert (objective weights st = Extent.cost x ~rank:r);
           Compact.load st l r;
           next.(r) <- st.next_id);
       src := Some l
     end);
  let width = ref 0 in
  for k = start_k to upto do
    width := max !width (Layer_pack.binomial m k)
  done;
  Trace.with_span trace ~cat:"dp"
    ~args:(fun () ->
      [
        ("vars", Ovo_obs.Json.Int m);
        ("upto", Ovo_obs.Json.Int upto);
        ("resumed_from", Ovo_obs.Json.Int (start_k - 1));
        ("engine", Ovo_obs.Json.String (Engine.to_string engine));
      ]
      @ (match prune with None -> [] | Some b -> Bound.to_args b))
    "dp.sweep"
    (fun () ->
      Engine.with_pool ~trace engine ~width:!width (fun pool ->
          for k = start_k to upto do
            (* cooperative cancellation: a fired token (deadline or
               explicit) aborts the sweep between layers — the finished
               layers' work is discarded and Cancelled propagates to the
               caller's [Cancel.protect] *)
            Cancel.check cancel;
            let prev = !layer in
            let last = k = upto in
            let total = Layer_pack.binomial m k in
            let dst =
              if last then None
              else
                let top = Array.fold_left max 0 prev.next in
                Some
                  (arena_layer k
                     ~bound:(top + min (cells lsr k) (top * top)))
            in
            (* the incumbent is frozen for the whole layer: workers
               prune against this snapshot, and only the code after
               the map below (calling domain) tightens it — Seq and
               Par keep identical surviving-state sets *)
            let pr =
              Option.map (fun b -> (b, Bound.incumbent b, base_free)) prune
            in
            let x = Layers.add layers ~k in
            let before = Metrics.snapshot metrics in
            let next =
              Trace.with_span trace ~cat:"dp"
                ~args:(fun () ->
                  ("k", Ovo_obs.Json.Int k)
                  :: ("subsets", Ovo_obs.Json.Int total)
                  :: ("skip_state", Ovo_obs.Json.Bool last)
                  :: Metrics.to_args
                       (Metrics.diff (Metrics.snapshot metrics) before))
                (Printf.sprintf "layer k=%d" k)
                (fun () ->
                  Engine.map ~cancel pool ~metrics
                    (eval_rank ctx ~k ~prev ~x ~src:(Option.get !src) ~dst
                       ~prune:pr)
                    total)
            in
            (match prune with
            | None -> ()
            | Some b ->
                (* layer boundary: tighten the incumbent from states
                   whose completion cost is known exactly (achievable
                   totals), and record the trajectory *)
                let kept = ref 0 and best_lb = ref max_int in
                Extent.iter x (fun ~rank ~cost ~choice:_ ->
                    incr kept;
                    let free =
                      Varset.diff base_free (Layers.unrank layers ~k rank)
                    in
                    (match Bound.exact_completion b free with
                    | Some extra -> Bound.observe b (cost + extra)
                    | None -> ());
                    best_lb := min !best_lb (cost + Bound.remaining b free));
                let pruned = total - !kept in
                Bound.note_pruned b pruned;
                if !kept = 0 then
                  raise
                    (Bound.Pruned_out
                       (Printf.sprintf
                          "Subset_dp: layer k=%d lost all %d states to the \
                           incumbent %d — no completion of this base beats \
                           it"
                          k total (Bound.incumbent b)));
                Bound.record_layer b
                  {
                    Bound.ls_layer = k;
                    ls_kept = !kept;
                    ls_pruned = pruned;
                    ls_lower = !best_lb;
                    ls_incumbent = Bound.incumbent b;
                  };
                Trace.counter trace "prune.states_pruned"
                  (float_of_int (Bound.states_pruned b));
                if Bound.incumbent b < max_int then
                  Trace.counter trace "prune.incumbent"
                    (float_of_int (Bound.incumbent b)));
            Option.iter (fun f -> f (progress_of layers x)) on_layer;
            layer := { x; next };
            if not last then src := dst
          done));
  (layers, !layer.x)

let membudget_of = function
  | Some mb -> mb
  | None -> Membudget.unbounded ()

(* The sweep, then the final layer's full states rebuilt by replay.
   The sweep already counted every state but the final layer's, so a
   replay charges only its last placement: the counters read as if
   the sweep had materialised the final layer itself. *)
let run ?(trace = Trace.null) ?(engine = Engine.Seq)
    ?(cancel = Cancel.never) ?(metrics = Metrics.create ()) ?membudget ?prune
    ?on_layer ?(resume = []) ?upto ~base j_set =
  let upto = validate ~base j_set upto in
  let mb = membudget_of membudget in
  let table, last =
    sweep ~trace ~engine ~cancel ~metrics ~mb ~prune ~weights:None ~upto
      ~on_layer ~resume ~base j_set
  in
  let layer = Hashtbl.create (Extent.total last) in
  let replay chain =
    match List.rev chain with
    | [] -> base
    | h :: prefix ->
        Compact.materialise ~metrics
          (replay ~metrics:(Metrics.create ()) base (List.rev prefix))
          h
  in
  rebuild ~trace ~replay table last (fun r st ->
      Hashtbl.replace layer (Layers.unrank table ~k:upto r) st);
  { j_set; upto; table; layer }

let state_of t ksub =
  if (not (Varset.subset ksub t.j_set)) || Varset.cardinal ksub <> t.upto
  then invalid_arg "Subset_dp.state_of: subset outside the final layer";
  match Hashtbl.find_opt t.layer ksub with
  | Some st -> st
  | None ->
      raise (Bound.Pruned_out "Subset_dp.state_of: the state was pruned")

(* The cost-only sweep, then one backtrack directly over the packed
   layers, which are released once it has read them. *)
let complete ?(trace = Trace.null) ?(engine = Engine.Seq)
    ?(cancel = Cancel.never) ?(metrics = Metrics.create ()) ?membudget ?prune
    ?weights ?on_layer ?(resume = []) ~base j_set =
  let upto = validate ~base j_set None in
  let mb = membudget_of membudget in
  let table, _ =
    sweep ~trace ~engine ~cancel ~metrics ~mb ~prune ~weights ~upto ~on_layer
      ~resume ~base j_set
  in
  Fun.protect ~finally:(fun () -> release table) @@ fun () ->
  let before = Metrics.snapshot metrics in
  let st =
    Trace.with_span trace ~cat:"dp"
      ~args:(fun () ->
        ("placements", Ovo_obs.Json.Int (Varset.cardinal j_set))
        :: Metrics.to_args (Metrics.diff (Metrics.snapshot metrics) before))
      "dp.reconstruct"
      (fun () ->
        let chain =
          match Layers.chains table [| j_set |] with
          | [| c |] -> c
          | _ -> assert false
        in
        replay ~metrics base chain)
  in
  assert (objective weights st = mincost table j_set);
  st
