module Trace = Ovo_obs.Trace

module type COMPACTABLE = sig
  type state

  val cost_if_compacted : metrics:Metrics.t -> state -> int -> int
  val materialise : metrics:Metrics.t -> state -> int -> state
  val mincost : state -> int
  val free : state -> Varset.t
end

type costs = {
  cost_j_set : Varset.t;
  cost_upto : int;
  cost_table : (Varset.t, int) Hashtbl.t;
  cost_choice : (Varset.t, int) Hashtbl.t;
}

type progress = {
  p_layer : int;
  p_entries : (Varset.t * int * int) array;
}

let binomial = Layer_pack.binomial

(* The packed cost/choice store of one sweep: layer [k] is split into
   fixed-size {!Layer_pack.Extent}s (9 bytes per subset, ~1 MiB of dense
   payload per extent) instead of two hashtable bindings, and under a
   {!Membudget} completed extents are spilled through the injected sink,
   lowest cardinality first — the forward sweep never re-reads them, and
   backtracking reloads only the extents its level-synchronous chains
   touch.  Because eviction happens extent-by-extent as each one is
   packed, peak resident stays within budget + one extent even when a
   single layer (the k≈n/2 hump) exceeds the whole budget.
   State-independent, so it lives outside the functor. *)
module Layers = struct
  module Extent = Layer_pack.Extent

  type eslot = Resident of Extent.t | Spilled

  type lrec = {
    l_total : int;  (* C(m,k): subsets in the layer *)
    l_elen : int;  (* ranks per extent (the last extent may be shorter) *)
    l_extents : eslot option array;
    mutable l_spilled_once : bool;
  }

  type t = {
    j_set : Varset.t;
    base_cost : int;
    mb : Membudget.t;
    trace : Trace.t;
    pascal : int array array;  (* shared rank/unrank table, k up to [upto] *)
    slots : lrec option array;  (* indexed by cardinality; slot 0 unused *)
    mutable memo : (int * int * Extent.t) option;
        (* last transiently reloaded (k, ext, extent): colex-ordered
           readers touch consecutive ranks, so a 1-slot memo turns
           per-entry fetches into one reload per extent *)
  }

  let create ~trace ~mb ~base_cost ~upto j_set =
    {
      j_set;
      base_cost;
      mb;
      trace;
      pascal = Layer_pack.pascal_table ~m:(Varset.cardinal j_set) ~k:upto;
      slots = Array.make (upto + 1) None;
      memo = None;
    }

  let rank t ksub = Layer_pack.rank_in ~pascal:t.pascal ~j_set:t.j_set ksub

  let ext_len lr ei = min lr.l_elen (lr.l_total - (ei * lr.l_elen))

  let spill_extent t ~k lr ei x =
    match Membudget.sink t.mb with
    | None -> ()
    | Some sink ->
        let raw = Extent.size_bytes x in
        let payload = Extent.encode x in
        let stored = String.length payload in
        (* transient-once accounting: the dense extent's charge is
           released as the packed copy is charged — the two are never on
           the books together, and since the encoder never grows
           ([stored <= raw]), eviction monotonically frees memory *)
        Membudget.shrank t.mb raw;
        Membudget.grew t.mb stored;
        Trace.with_span t.trace ~cat:"spill"
          ~args:(fun () ->
            [
              ("k", Ovo_obs.Json.Int k);
              ("ext", Ovo_obs.Json.Int ei);
              ("raw", Ovo_obs.Json.Int raw);
              ("bytes", Ovo_obs.Json.Int stored);
            ])
          "spill.write"
          (fun () -> sink.Membudget.spill ~k ~ext:ei payload);
        Membudget.shrank t.mb stored;
        if not lr.l_spilled_once then begin
          lr.l_spilled_once <- true;
          Membudget.note_layer_spill t.mb
        end;
        Membudget.note_spill t.mb ~raw ~stored;
        Trace.counter t.trace "spill.bytes_spilled"
          (float_of_int (Membudget.bytes_spilled t.mb));
        lr.l_extents.(ei) <- Some Spilled

  let enforce_budget t =
    let k = ref 1 in
    while Membudget.over_budget t.mb && !k < Array.length t.slots do
      (match t.slots.(!k) with
      | None -> ()
      | Some lr ->
          let ei = ref 0 in
          while Membudget.over_budget t.mb && !ei < Array.length lr.l_extents
          do
            (match lr.l_extents.(!ei) with
            | Some (Resident x) -> spill_extent t ~k:!k lr !ei x
            | Some Spilled | None -> ());
            incr ei
          done);
      incr k
    done

  (* Pack one completed layer's triples, extent by extent: each extent
     is filled, charged and immediately subject to budget enforcement,
     so the layer as a whole need never be resident at once. *)
  let put_entries t ~k entries =
    let total = binomial (Varset.cardinal t.j_set) k in
    let elen =
      max 1 (Membudget.extent_bytes t.mb / Layer_pack.entry_bytes)
    in
    let n_ext = (total + elen - 1) / elen in
    let lr =
      {
        l_total = total;
        l_elen = elen;
        l_extents = Array.make n_ext None;
        l_spilled_once = false;
      }
    in
    t.slots.(k) <- Some lr;
    (* bucket the triples by extent index; entries arrive in colex order
       but ranks are computed anyway, so no order is assumed *)
    let buckets = Array.make n_ext [] in
    Array.iter
      (fun ((ksub, _, _) as e) ->
        let r = rank t ksub in
        buckets.(r / elen) <- (r, e) :: buckets.(r / elen))
      entries;
    let layer_bytes = ref 0 in
    for ei = 0 to n_ext - 1 do
      let lo = ei * elen in
      let x =
        Extent.create ~j_set:t.j_set ~k ~total ~lo ~len:(ext_len lr ei)
      in
      List.iter
        (fun (r, (_, cost, choice)) -> Extent.set x ~rank:r ~cost ~choice)
        buckets.(ei);
      buckets.(ei) <- [];
      layer_bytes := !layer_bytes + Extent.size_bytes x;
      Membudget.grew t.mb (Extent.size_bytes x);
      lr.l_extents.(ei) <- Some (Resident x);
      enforce_budget t
    done;
    Membudget.note_layer_bytes t.mb !layer_bytes

  (* Fetch one extent for reading.  A spilled extent is decoded
     transiently and not re-accounted resident: readers touch ranks in
     colex runs, so the 1-slot memo bounds transient reloads to one
     live extent at a time. *)
  let fetch_extent t ~k ~ei =
    match t.slots.(k) with
    | None -> invalid_arg "Subset_dp: layer not computed"
    | Some lr -> (
        match lr.l_extents.(ei) with
        | None -> invalid_arg "Subset_dp: extent not computed"
        | Some (Resident x) -> x
        | Some Spilled -> (
            match t.memo with
            | Some (mk, mei, x) when mk = k && mei = ei -> x
            | _ -> (
                match Membudget.sink t.mb with
                | None -> assert false
                | Some sink ->
                    Trace.with_span t.trace ~cat:"spill"
                      ~args:(fun () ->
                        [
                          ("k", Ovo_obs.Json.Int k);
                          ("ext", Ovo_obs.Json.Int ei);
                        ])
                      "spill.reload"
                      (fun () ->
                        let src = sink.Membudget.reload ~k ~ext:ei in
                        let lo = ei * lr.l_elen in
                        let x =
                          try
                            Extent.of_src src ~j_set:t.j_set ~k ~total:lr.l_total
                              ~lo ~len:(ext_len lr ei)
                          with Invalid_argument m -> failwith m
                        in
                        Membudget.note_reload t.mb (Layer_pack.src_length src);
                        t.memo <- Some (k, ei, x);
                        x))))

  let extent_of t ~k ksub =
    match t.slots.(k) with
    | None -> invalid_arg "Subset_dp: layer not computed"
    | Some lr ->
        let r = rank t ksub in
        (r, fetch_extent t ~k ~ei:(r / lr.l_elen))

  let cost t ksub =
    if Varset.is_empty ksub then t.base_cost
    else
      let r, x = extent_of t ~k:(Varset.cardinal ksub) ksub in
      Extent.cost x ~rank:r

  (* Backtrack the recorded tight choices of every [target] (all of one
     cardinality [m]) level-synchronously: at each level the chains'
     ranks are grouped by extent, so a spilled extent costs one reload
     however many chains cross it — and extents no chain touches are
     never read at all.  Chains come back first-placed-first, ready to
     replay. *)
  let chains t targets =
    let m =
      if Array.length targets = 0 then 0 else Varset.cardinal targets.(0)
    in
    let subs = Array.copy targets in
    let acc = Array.make (Array.length targets) [] in
    for k = m downto 1 do
      match t.slots.(k) with
      | None -> invalid_arg "Subset_dp: layer not computed"
      | Some lr ->
          let cache = Hashtbl.create 4 in
          Array.iteri
            (fun i sub ->
              let r = rank t sub in
              let ei = r / lr.l_elen in
              let x =
                match Hashtbl.find_opt cache ei with
                | Some x -> x
                | None ->
                    let x = fetch_extent t ~k ~ei in
                    Hashtbl.add cache ei x;
                    x
              in
              let h = Extent.choice x ~rank:r in
              acc.(i) <- h :: acc.(i);
              subs.(i) <- Varset.remove h sub)
            subs
    done;
    acc

  (* Visit every set entry of layer [k], extent by extent in rank
     order. *)
  let iter_layer t k f =
    match t.slots.(k) with
    | None -> invalid_arg "Subset_dp: layer not computed"
    | Some lr ->
        for ei = 0 to Array.length lr.l_extents - 1 do
          Extent.iter (fetch_extent t ~k ~ei) (fun ~rank ~cost ~choice ->
              f
                (Layer_pack.unrank_in ~pascal:t.pascal ~j_set:t.j_set ~k rank)
                ~cost ~choice)
        done

  (* Unpack everything back into the legacy hashtable form (the public
     {!costs}/[mincosts] API). *)
  let to_tables t upto =
    let mincosts = Hashtbl.create 64 and choices = Hashtbl.create 64 in
    Hashtbl.replace mincosts Varset.empty t.base_cost;
    for k = 1 to upto do
      iter_layer t k (fun ksub ~cost ~choice ->
          Hashtbl.replace mincosts ksub cost;
          Hashtbl.replace choices ksub choice)
    done;
    (mincosts, choices)
end

module Make (S : COMPACTABLE) = struct
  type t = {
    j_set : Varset.t;
    upto : int;
    mincosts : (Varset.t, int) Hashtbl.t;
    layer : (Varset.t, S.state) Hashtbl.t;
  }

  let validate ~base j_set upto =
    if not (Varset.subset j_set (S.free base)) then
      invalid_arg "Subset_dp.run: J not free in the base state";
    let j_size = Varset.cardinal j_set in
    let upto = match upto with None -> j_size | Some k -> k in
    if upto < 0 || upto > j_size then invalid_arg "Subset_dp.run: bad upto";
    upto

  let subsets_of j_set ~size =
    let acc = ref [] in
    Varset.iter_subsets_of j_set ~size (fun k -> acc := k :: !acc);
    Array.of_list (List.rev !acc)

  (* The two-pass layer step for one subset.  Pass 1 probes every
     candidate [h] for its cost only (Lemma 7 minimisation) — no
     state.  Pass 2 materialises the single winner, unless
     [skip_state] (the caller will never read this layer's states).
     Ties keep the smallest [h], as the one-pass code did.  The previous
     layer is frozen, so this function is safe on Engine.Par workers.

     [prune = Some (b, cap, base_free)] turns the step into a
     branch-and-bound one: a predecessor missing from [prev] was pruned
     (a subset all of whose predecessors are gone is unreachable and
     pruned too), and a winner whose cost plus admissible remaining
     bound exceeds the incumbent snapshot [cap] is dropped — [None].
     [cap] is read once per layer on the calling domain, so Par workers
     prune against the same incumbent as Seq and the surviving state
     set is deterministic.  An optimal chain's prefixes always satisfy
     [cost + remaining <= optimum <= cap], so exactly one full-cost
     chain to every optimal target survives and answers stay
     bit-identical (a pruned candidate never beats the surviving tight
     choice, so ties still keep the smallest [h]). *)
  let eval_subset ~prev ~skip_state ~prune metrics ksub =
    let best_h = ref (-1) and best_c = ref max_int in
    Varset.iter
      (fun h ->
        match Hashtbl.find_opt prev (Varset.remove h ksub) with
        | None -> ()
        | Some before ->
            let c = S.cost_if_compacted ~metrics before h in
            if c < !best_c then begin
              best_c := c;
              best_h := h
            end)
      ksub;
    if !best_h < 0 then begin
      assert (Option.is_some prune);
      None
    end
    else
      let keep =
        match prune with
        | None -> true
        | Some (b, cap, base_free) ->
            !best_c + Bound.remaining b (Varset.diff base_free ksub) <= cap
      in
      if not keep then None
      else
        let st =
          if skip_state then None
          else begin
            let before = Hashtbl.find prev (Varset.remove !best_h ksub) in
            let st = S.materialise ~metrics before !best_h in
            assert (S.mincost st = !best_c);
            Some st
          end
        in
        Some (ksub, !best_h, !best_c, st)

  (* Replaying a subset's recorded choice chain over the base yields a
     state bit-identical to the one the original sweep materialised for
     it: node ids are assigned in scan order, which is a deterministic
     function of the placement sequence alone. *)
  let chain_of choices ksub =
    let rec go k acc =
      if Varset.is_empty k then acc
      else
        let h = Hashtbl.find choices k in
        go (Varset.remove h k) (h :: acc)
    in
    go ksub []

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
        if Array.length p.p_entries <> binomial j_size p.p_layer then
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

  (* One full DP sweep.  [keep_last_states]: materialise and keep the
     states of the final cardinality layer (algorithm FS* proper);
     cost-only callers skip them and backtrack instead.  Intermediate
     layers are always materialised (the next layer's probes need them)
     and dropped eagerly as soon as their successor layer is complete —
     only the packed integer layers outlive a layer.

     Each completed layer is bit-packed extent by extent into
     {!Layer_pack.Extent}s by {!Layers.put_entries}, which charges [mb]
     per extent and spills past the budget; packing happens on the
     calling domain after the parallel join, so the packed bytes — like
     the results they encode — are identical under Seq and Par.

     [on_layer] fires once per completed cardinality layer with that
     layer's (subset, cost, tight choice) triples — the checkpoint
     hook — {e before} the layer is packed, so a checkpoint-backed spill
     sink ({!Ovo_store.Checkpoint.sink}) already holds the layer's
     record when its extents are evicted; the same boundaries [cancel]
     is polled at.  [resume] preloads the
     packed layers from previously completed progress and rebuilds the
     last layer's states by replaying the recorded choice chains, so
     the sweep continues exactly where the checkpointed run stopped and
     stays bit-identical to an uninterrupted one under both engines.

     With a recording tracer, every cardinality layer is one span
     (category "dp") whose args carry the subset count and the layer's
     metrics delta (merged across domains for Engine.Par; the per-domain
     child spans come from Engine.map).  The whole sweep is a parent
     span.  Spill traffic adds "spill" spans and counters — only ever
     emitted when a budget is set, so unbudgeted traces are unchanged.
     Probes stay untraced — the tracer's granularity floor is a layer,
     so the disabled-tracer cost on the hot path is zero. *)
  let sweep ~trace ~engine ~cancel ~metrics ~mb ~prune ~upto ~keep_last_states
      ~on_layer ~resume ~base j_set =
    (match (prune, resume) with
    | Some _, _ :: _ ->
        (* a checkpoint records complete layers; a pruned sweep neither
           produces nor accepts them *)
        invalid_arg "Subset_dp: pruning cannot resume from a checkpoint"
    | _ -> ());
    let base_free = S.free base in
    let layers =
      Layers.create ~trace ~mb ~base_cost:(S.mincost base) ~upto j_set
    in
    let start_k = validate_resume ~upto j_set resume + 1 in
    List.iter
      (fun p -> Layers.put_entries layers ~k:p.p_layer p.p_entries)
      resume;
    let layer = ref (Hashtbl.create 1) in
    if start_k = 1 then Hashtbl.replace !layer Varset.empty base
    else begin
      let m = start_k - 1 in
      (* the resumed layer's states are only needed when the sweep will
         read them: either another layer follows, or the caller keeps
         the final layer (FS* proper) *)
      if m < upto || keep_last_states then
        Trace.with_span trace ~cat:"dp"
          ~args:(fun () ->
            [
              ("k", Ovo_obs.Json.Int m);
              ( "subsets",
                Ovo_obs.Json.Int (binomial (Varset.cardinal j_set) m) );
            ])
          "dp.rebuild"
          (fun () ->
            let tbl = Hashtbl.create 64 in
            let subs = subsets_of j_set ~size:m in
            let chains = Layers.chains layers subs in
            Array.iteri
              (fun i ksub ->
                let st =
                  List.fold_left
                    (fun st h -> S.materialise ~metrics st h)
                    base chains.(i)
                in
                (* [subs] is in colex order, so the per-subset cost
                   probes walk each spilled extent once via the memo *)
                assert (S.mincost st = Layers.cost layers ksub);
                Hashtbl.replace tbl ksub st)
              subs;
            layer := tbl)
    end;
    Trace.with_span trace ~cat:"dp"
      ~args:(fun () ->
        [
          ("vars", Ovo_obs.Json.Int (Varset.cardinal j_set));
          ("upto", Ovo_obs.Json.Int upto);
          ("resumed_from", Ovo_obs.Json.Int (start_k - 1));
          ("engine", Ovo_obs.Json.String (Engine.to_string engine));
        ]
        @ (match prune with None -> [] | Some b -> Bound.to_args b))
      "dp.sweep"
      (fun () ->
        for k = start_k to upto do
          (* cooperative cancellation: a fired token (deadline or explicit)
             aborts the sweep between layers — the finished layers' work
             is discarded and Cancelled propagates to the caller's
             [Cancel.protect] *)
          Cancel.check cancel;
          let prev = !layer in
          let skip_state = k = upto && not keep_last_states in
          let subs = subsets_of j_set ~size:k in
          (* the incumbent is frozen for the whole layer: workers prune
             against this snapshot, and only the post-join code below
             (calling domain) tightens it — Seq and Par keep identical
             surviving-state sets *)
          let pr =
            Option.map (fun b -> (b, Bound.incumbent b, base_free)) prune
          in
          let before = Metrics.snapshot metrics in
          let results =
            Trace.with_span trace ~cat:"dp"
              ~args:(fun () ->
                ("k", Ovo_obs.Json.Int k)
                :: ("subsets", Ovo_obs.Json.Int (Array.length subs))
                :: ("skip_state", Ovo_obs.Json.Bool skip_state)
                :: Metrics.to_args
                     (Metrics.diff (Metrics.snapshot metrics) before))
              (Printf.sprintf "layer k=%d" k)
              (fun () ->
                Engine.map ~trace ~cancel engine ~metrics
                  (eval_subset ~prev ~skip_state ~prune:pr)
                  subs)
          in
          let kept =
            Array.of_seq (Seq.filter_map Fun.id (Array.to_seq results))
          in
          (match prune with
          | None -> ()
          | Some b ->
              let pruned = Array.length subs - Array.length kept in
              Bound.note_pruned b pruned;
              if Array.length kept = 0 then
                raise
                  (Bound.Pruned_out
                     (Printf.sprintf
                        "Subset_dp: layer k=%d lost all %d states to the \
                         incumbent %d — no completion of this base beats it"
                        k (Array.length subs) (Bound.incumbent b)));
              (* layer boundary: tighten the incumbent from states whose
                 completion cost is known exactly (achievable totals),
                 and record the trajectory *)
              let best_lb = ref max_int in
              Array.iter
                (fun (ksub, _, c, _) ->
                  let free = Varset.diff base_free ksub in
                  (match Bound.exact_completion b free with
                  | Some extra -> Bound.observe b (c + extra)
                  | None -> ());
                  let lb = c + Bound.remaining b free in
                  if lb < !best_lb then best_lb := lb)
                kept;
              Bound.record_layer b
                {
                  Bound.ls_layer = k;
                  ls_kept = Array.length kept;
                  ls_pruned = pruned;
                  ls_lower = !best_lb;
                  ls_incumbent = Bound.incumbent b;
                };
              Trace.counter trace "prune.states_pruned"
                (float_of_int (Bound.states_pruned b));
              if Bound.incumbent b < max_int then
                Trace.counter trace "prune.incumbent"
                  (float_of_int (Bound.incumbent b)));
          let next = Hashtbl.create (Array.length kept * 2) in
          Array.iter
            (fun (ksub, _, _, st) ->
              match st with
              | Some st -> Hashtbl.replace next ksub st
              | None -> ())
            kept;
          let entries = Array.map (fun (ksub, h, c, _) -> (ksub, c, h)) kept in
          (* checkpoint first, pack second: once [on_layer] has made the
             layer durable, a checkpoint-backed spill sink can treat
             eviction of its extents as a no-op *)
          on_layer { p_layer = k; p_entries = entries };
          Layers.put_entries layers ~k entries;
          (* eager drop: only the packed extents survive *)
          Hashtbl.reset prev;
          layer := next
        done);
    (layers, !layer)

  let membudget_of = function
    | Some mb -> mb
    | None -> Membudget.unbounded ()

  let run ?(trace = Trace.null) ?(engine = Engine.Seq)
      ?(cancel = Cancel.never) ?(metrics = Metrics.ambient) ?membudget ?prune
      ?(on_layer = fun _ -> ()) ?(resume = []) ?upto ~base j_set =
    let upto = validate ~base j_set upto in
    let mb = membudget_of membudget in
    let layers, layer =
      sweep ~trace ~engine ~cancel ~metrics ~mb ~prune ~upto
        ~keep_last_states:true ~on_layer ~resume ~base j_set
    in
    let mincosts, _ = Layers.to_tables layers upto in
    { j_set; upto; mincosts; layer }

  let costs ?(trace = Trace.null) ?(engine = Engine.Seq)
      ?(cancel = Cancel.never) ?(metrics = Metrics.ambient) ?membudget ?prune
      ?(on_layer = fun _ -> ()) ?(resume = []) ?upto ~base j_set =
    let upto = validate ~base j_set upto in
    let mb = membudget_of membudget in
    let layers, _ =
      sweep ~trace ~engine ~cancel ~metrics ~mb ~prune ~upto
        ~keep_last_states:false ~on_layer ~resume ~base j_set
    in
    let mincosts, choices = Layers.to_tables layers upto in
    { cost_j_set = j_set; cost_upto = upto; cost_table = mincosts;
      cost_choice = choices }

  let reconstruct ?(trace = Trace.null) ?(metrics = Metrics.ambient) ~base ct
      target =
    if not (Varset.subset target ct.cost_j_set)
       || Varset.cardinal target > ct.cost_upto
    then invalid_arg "Subset_dp.reconstruct: target not covered";
    (* Backtrack the recorded tight transitions: [cost_choice] holds, for
       every K, the last-placed h of an optimal suborder of K.  Walking
       it from [target] down to the empty set yields the placement
       sequence; replaying it over [base] materialises the optimal state
       in |target| compactions. *)
    let before = Metrics.snapshot metrics in
    let st =
      Trace.with_span trace ~cat:"dp"
        ~args:(fun () ->
          ("placements", Ovo_obs.Json.Int (Varset.cardinal target))
          :: Metrics.to_args (Metrics.diff (Metrics.snapshot metrics) before))
        "dp.reconstruct"
        (fun () ->
          List.fold_left
            (fun st h -> S.materialise ~metrics st h)
            base
            (chain_of ct.cost_choice target))
    in
    assert (S.mincost st = Hashtbl.find ct.cost_table target);
    st

  (* Under pruning a subset may have been discarded — surface that as
     {!Bound.Pruned_out} (the branch is provably not worth completing)
     rather than [Not_found]. *)
  let state_of t ksub =
    match Hashtbl.find_opt t.layer ksub with
    | Some st -> st
    | None ->
        raise (Bound.Pruned_out "Subset_dp.state_of: the state was pruned")

  let mincost_of t ksub =
    match Hashtbl.find_opt t.mincosts ksub with
    | Some c -> c
    | None ->
        raise (Bound.Pruned_out "Subset_dp.mincost_of: the state was pruned")

  (* The out-of-core path: sweep in packed (cost-only) mode, then
     backtrack directly over the packed layers — spilled layers are
     reloaded lazily, one fetch per cardinality, and the hashtable form
     is never built. *)
  let complete ?(trace = Trace.null) ?(engine = Engine.Seq)
      ?(cancel = Cancel.never) ?(metrics = Metrics.ambient) ?membudget ?prune
      ?(on_layer = fun _ -> ()) ?(resume = []) ~base j_set =
    let upto = validate ~base j_set None in
    let mb = membudget_of membudget in
    let layers, _ =
      sweep ~trace ~engine ~cancel ~metrics ~mb ~prune ~upto
        ~keep_last_states:false ~on_layer ~resume ~base j_set
    in
    let before = Metrics.snapshot metrics in
    let st =
      Trace.with_span trace ~cat:"dp"
        ~args:(fun () ->
          ("placements", Ovo_obs.Json.Int (Varset.cardinal j_set))
          :: Metrics.to_args (Metrics.diff (Metrics.snapshot metrics) before))
        "dp.reconstruct"
        (fun () ->
          let chain =
            match Layers.chains layers [| j_set |] with
            | [| c |] -> c
            | _ -> assert false
          in
          List.fold_left (fun st h -> S.materialise ~metrics st h) base chain)
    in
    assert (S.mincost st = Layers.cost layers j_set);
    st
end
