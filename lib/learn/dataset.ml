module T = Ovo_boolfun.Truthtable
module F = Ovo_boolfun.Families
module E = Ovo_core.Eval_order
module Json = Ovo_obs.Json
module Trace = Ovo_obs.Trace

type spec = {
  families : string list option;
  n_max : int;
  random : int;
  seed : int;
  kind : Ovo_core.Compact.kind;
}

let default_spec =
  {
    families = None;
    n_max = 12;
    random = 0;
    seed = 1987;
    kind = Ovo_core.Compact.Bdd;
  }

type costs = {
  c_opt : int;
  c_worst : int;
  c_scored : int;
  c_influence : int;
  c_sifting : int;
  c_random : int;
}

type row = {
  name : string;
  n : int;
  digest : string;
  table : string;
  opt_order : int array;
  features : Features.t;
  costs : costs;
}

let kind_to_string = function
  | Ovo_core.Compact.Bdd -> "bdd"
  | Ovo_core.Compact.Zdd -> "zdd"

let spec_to_json s =
  Json.Obj
    [
      ( "families",
        match s.families with
        | None -> Json.Null
        | Some fs -> Json.List (List.map (fun f -> Json.String f) fs) );
      ("n_max", Json.Int s.n_max);
      ("random", Json.Int s.random);
      ("seed", Json.Int s.seed);
      ("kind", Json.String (kind_to_string s.kind));
    ]

let tasks spec =
  let catalogue = F.catalogue ~max_arity:spec.n_max in
  let named =
    match spec.families with
    | None -> catalogue
    | Some names ->
        List.map
          (fun name ->
            match List.assoc_opt name catalogue with
            | Some tt -> (name, tt)
            | None ->
                failwith
                  (Printf.sprintf
                     "unknown family %S at n_max %d; try `ovo families`" name
                     spec.n_max))
          names
  in
  let randoms =
    List.init spec.random (fun i ->
        (* arity cycles 4..8 (capped by n_max); each function gets its
           own deterministic stream so row i never depends on row i-1 *)
        let n = min spec.n_max (4 + (i mod 5)) in
        let rng = Random.State.make [| 0x0D5; spec.seed; i |] in
        (Printf.sprintf "random-%d-%d" spec.seed i, T.random rng n))
  in
  named @ randoms

(* The sampled stand-in for the (intractable) exact worst ordering:
   identity, reverse, 16 seeded permutations, and every heuristic order
   already priced. *)
let sampled_orders rng n =
  let identity = Ovo_ordering.Perm.identity n in
  let reverse = Array.init n (fun j -> n - 1 - j) in
  (identity, reverse, List.init 16 (fun _ -> Ovo_ordering.Perm.random rng n))

(* Label one function: features, heuristic costs, then the exact DP
   (scorer-seeded branch-and-bound: exact, just faster). *)
let solve_row ?(trace = Trace.null) ?weights spec ~index name tt =
  Trace.with_span trace ~cat:"learn"
    ~args:(fun () ->
      [ ("name", Json.String name); ("n", Json.Int (T.arity tt)) ])
    "learn.dataset.row"
    (fun () ->
      let kind = spec.kind in
      let n = T.arity tt in
      let features = Features.of_truthtable tt in
      let mt = Ovo_boolfun.Mtable.of_truthtable tt in
      let scored = Scorer.run ~trace ?weights ~kind tt in
      let influence = Ovo_ordering.Influence.run ~kind tt in
      let sifting = Ovo_ordering.Sifting.run ~trace ~kind mt in
      let rng = Random.State.make [| spec.seed; index |] in
      let identity, reverse, randoms = sampled_orders rng n in
      let random_costs = List.map (fun o -> E.mincost ~kind tt o) randoms in
      let c_random = match random_costs with c :: _ -> c | [] -> 0 in
      (* exact label: branch-and-bound seeded as --prune is, from the
         scored and sifting results above; still exact *)
      let prune = Scorer.seeded_bound_of ~kind ~scored ~sifting mt in
      let opt = Ovo_core.Fs.run ~trace ~kind ~prune tt in
      let c_worst =
        List.fold_left max 0
          (E.mincost ~kind tt identity :: E.mincost ~kind tt reverse
           :: scored.mincost :: influence.mincost :: sifting.mincost
           :: random_costs)
      in
      {
        name;
        n;
        digest = T.digest tt;
        table = T.to_string tt;
        opt_order = opt.Ovo_core.Fs.order;
        features;
        costs =
          {
            c_opt = opt.Ovo_core.Fs.mincost;
            c_worst;
            c_scored = scored.mincost;
            c_influence = influence.mincost;
            c_sifting = sifting.mincost;
            c_random;
          };
      })

let order_to_json o = Json.List (Array.to_list (Array.map (fun v -> Json.Int v) o))

let row_to_json r =
  Json.Obj
    [
      ("name", Json.String r.name);
      ("n", Json.Int r.n);
      ("digest", Json.String r.digest);
      ("table", Json.String r.table);
      ("opt_order", order_to_json r.opt_order);
      ("opt_cost", Json.Int r.costs.c_opt);
      ("worst_cost", Json.Int r.costs.c_worst);
      ("scored_cost", Json.Int r.costs.c_scored);
      ("influence_cost", Json.Int r.costs.c_influence);
      ("sifting_cost", Json.Int r.costs.c_sifting);
      ("random_cost", Json.Int r.costs.c_random);
      ("features", Features.to_json r.features);
    ]

let ( let* ) = Result.bind

let row_of_json j =
  let str name =
    match Json.member name j with
    | Some (Json.String s) -> Ok s
    | _ -> Error (Printf.sprintf "row: missing string field %S" name)
  in
  let int name =
    match Option.map Json.to_int_opt (Json.member name j) with
    | Some (Some i) -> Ok i
    | _ -> Error (Printf.sprintf "row: missing int field %S" name)
  in
  let* name = str "name" in
  let* n = int "n" in
  let* digest = str "digest" in
  let* table = str "table" in
  let* opt_order =
    match Json.member "opt_order" j with
    | Some (Json.List xs) -> (
        try
          Ok
            (Array.of_list
               (List.map
                  (fun x ->
                    match Json.to_int_opt x with
                    | Some v -> v
                    | None -> raise Exit)
                  xs))
        with Exit -> Error "row: opt_order entry is not an int")
    | _ -> Error "row: missing opt_order"
  in
  let* c_opt = int "opt_cost" in
  let* c_worst = int "worst_cost" in
  let* c_scored = int "scored_cost" in
  let* c_influence = int "influence_cost" in
  let* c_sifting = int "sifting_cost" in
  let* c_random = int "random_cost" in
  let* features =
    match Json.member "features" j with
    | Some f -> Features.of_json f
    | None -> Error "row: missing features"
  in
  if Array.length opt_order <> n then Error "row: opt_order arity mismatch"
  else
    Ok
      {
        name;
        n;
        digest;
        table;
        opt_order;
        features;
        costs = { c_opt; c_worst; c_scored; c_influence; c_sifting; c_random };
      }

let to_ndjson rows =
  String.concat ""
    (List.map (fun r -> Json.to_string (row_to_json r) ^ "\n") rows)

let of_ndjson text =
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  let rec go acc i = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match Json.parse line with
        | Error m -> Error (Printf.sprintf "line %d: %s" i m)
        | Ok j -> (
            match row_of_json j with
            | Error m -> Error (Printf.sprintf "line %d: %s" i m)
            | Ok r -> go (r :: acc) (i + 1) rest))
  in
  go [] 1 lines

(* Rlog record types of the resume store: 0 = the generating spec,
   1 = one completed row (its JSON, reused verbatim on recovery). *)
let rt_spec = 0

let rt_row = 1

let generate ?(trace = Trace.null) ?weights ?store ?(on_row = fun _ -> ())
    spec =
  let ts = tasks spec in
  let recovered, append, finish =
    match store with
    | None -> (Hashtbl.create 1, (fun _ -> ()), fun () -> ())
    | Some dir ->
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        let path = Filename.concat dir "dataset.rlog" in
        let spec_line = Json.to_string (spec_to_json spec) in
        let log, records, _recovery = Ovo_store.Rlog.open_append path in
        let matches =
          match records with
          | { Ovo_store.Rlog.rtype; payload } :: _ ->
              rtype = rt_spec && payload = spec_line
          | [] -> false
        in
        let log =
          if matches then log
          else begin
            (* different spec (or fresh file): start over *)
            Ovo_store.Rlog.close log;
            let log = Ovo_store.Rlog.create path in
            Ovo_store.Rlog.append log ~rtype:rt_spec spec_line;
            log
          end
        in
        let tbl = Hashtbl.create 64 in
        if matches then
          List.iter
            (fun { Ovo_store.Rlog.rtype; payload } ->
              if rtype = rt_row then
                match Result.bind (Json.parse payload) row_of_json with
                | Ok r -> Hashtbl.replace tbl r.name r
                | Error _ -> ())
            records;
        ( tbl,
          (fun r ->
            Ovo_store.Rlog.append log ~rtype:rt_row
              (Json.to_string (row_to_json r))),
          fun () -> Ovo_store.Rlog.close log )
  in
  Fun.protect ~finally:finish @@ fun () ->
  Trace.with_span trace ~cat:"learn"
    ~args:(fun () ->
      [
        ("tasks", Json.Int (List.length ts));
        ("recovered", Json.Int (Hashtbl.length recovered));
      ])
    "learn.dataset.generate"
    (fun () ->
      List.mapi
        (fun index (name, tt) ->
          let r =
            match Hashtbl.find_opt recovered name with
            | Some r -> r
            | None ->
                let r = solve_row ~trace ?weights spec ~index name tt in
                append r;
                r
          in
          on_row r;
          r)
        ts)
