module T = Ovo_boolfun.Truthtable
module B = Ovo_core.Bound
module Json = Ovo_obs.Json
module Trace = Ovo_obs.Trace

module Weights = struct
  type t = {
    influence : float;
    polarity : float;
    spectral : float;
    occurrence : float;
    cosens : float;
    decay : float;
  }

  (* Hand-tuned against the catalogue corpus: influence dominates (the
     classic place-deciders-at-the-root rule), co-sensitivity pulls
     interacting variables together. *)
  let default =
    {
      influence = 1.0;
      polarity = 0.15;
      spectral = 0.35;
      occurrence = 0.4;
      cosens = 0.8;
      decay = 0.5;
    }

  let to_json w =
    Json.Obj
      [
        ("version", Json.Int 1);
        ( "weights",
          Json.Obj
            [
              ("influence", Json.Float w.influence);
              ("polarity", Json.Float w.polarity);
              ("spectral", Json.Float w.spectral);
              ("occurrence", Json.Float w.occurrence);
              ("cosens", Json.Float w.cosens);
            ] );
        ("decay", Json.Float w.decay);
      ]

  let of_json j =
    let num path dflt =
      match Json.find_path path j with
      | None -> Ok dflt
      | Some v -> (
          match Json.to_float_opt v with
          | Some f -> Ok f
          | None ->
              Error
                (Printf.sprintf "model field %s is not a number"
                   (String.concat "." path)))
    in
    let ( let* ) = Result.bind in
    let* influence = num [ "weights"; "influence" ] default.influence in
    let* polarity = num [ "weights"; "polarity" ] default.polarity in
    let* spectral = num [ "weights"; "spectral" ] default.spectral in
    let* occurrence = num [ "weights"; "occurrence" ] default.occurrence in
    let* cosens = num [ "weights"; "cosens" ] default.cosens in
    let* decay = num [ "decay" ] default.decay in
    if decay < 0. || decay > 1. then Error "model decay must lie in [0,1]"
    else Ok { influence; polarity; spectral; occurrence; cosens; decay }

  let load path =
    match
      try
        let ic = open_in path in
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        close_in ic;
        Ok text
      with Sys_error m -> Error m
    with
    | Error m -> Error m
    | Ok text -> (
        match Json.parse text with
        | Ok j -> of_json j
        | Error m -> Error (Printf.sprintf "%s: %s" path m))

  let save path w =
    let oc = open_out path in
    output_string oc (Json.to_string (to_json w));
    output_char oc '\n';
    close_out oc
end

let place ?(weights = Weights.default) (f : Features.t) =
  let n = f.n in
  let w = weights in
  let base =
    Array.init n (fun j ->
        (w.Weights.influence *. f.Features.influence.(j))
        +. (w.Weights.polarity *. Float.abs f.Features.polarity.(j))
        +. (w.Weights.spectral *. f.Features.spectral.(j))
        +. (w.Weights.occurrence *. f.Features.occurrence.(j)))
  in
  let coupling j k = w.Weights.cosens *. f.Features.cosens.(j).(k) in
  let placed = Array.make n false in
  let attract = Array.make n 0. in
  (* root-first greedy: highest score splits first *)
  let root_first = Array.make n 0 in
  for t = 0 to n - 1 do
    let best = ref (-1) and best_score = ref neg_infinity in
    for j = 0 to n - 1 do
      if not placed.(j) then begin
        let s = base.(j) +. attract.(j) in
        if s > !best_score then begin
          best_score := s;
          best := j
        end
      end
    done;
    let p = !best in
    placed.(p) <- true;
    root_first.(t) <- p;
    for j = 0 to n - 1 do
      if not placed.(j) then
        attract.(j) <- (w.Weights.decay *. attract.(j)) +. coupling j p
    done
  done;
  (* repository convention: order.(0) is read last *)
  Array.init n (fun j -> root_first.(n - 1 - j))

let order ?weights tt = place ?weights (Features.of_truthtable tt)

let run ?(trace = Trace.null) ?metrics ?weights ?kind tt =
  let r = ref None in
  Trace.with_span trace ~cat:"learn"
    ~args:(fun () ->
      match !r with
      | None -> [ ("n", Json.Int (T.arity tt)) ]
      | Some (res : Ovo_ordering.Chain.result) ->
          [ ("n", Json.Int (T.arity tt)); ("mincost", Json.Int res.mincost) ])
    "learn.score"
    (fun () ->
      let f =
        Trace.with_span trace ~cat:"learn" "learn.features" (fun () ->
            Features.of_truthtable tt)
      in
      let order = place ?weights f in
      let res =
        {
          Ovo_ordering.Chain.mincost =
            Ovo_core.Eval_order.mincost ?metrics ?kind tt order;
          order;
        }
      in
      r := Some res;
      res)

let upper ?trace ?weights ?kind tt =
  let r = run ?trace ?weights ?kind tt in
  { B.ub_source = "scored"; ub_value = r.mincost }

let bound ?trace ?weights ?(kind = Ovo_core.Compact.Bdd) tt =
  B.make
    ~seed:(upper ?trace ?weights ~kind tt)
    (B.counting_lower kind (Ovo_boolfun.Mtable.of_truthtable tt))

(* the scored incumbent is free; sifting then gets a chance to tighten
   it — ties keep the free seed *)
let seeded_bound_of ~kind ~(scored : Ovo_ordering.Chain.result)
    ~(sifting : Ovo_ordering.Chain.result) mt =
  let seed =
    if scored.mincost <= sifting.mincost then
      { B.ub_source = "scored"; ub_value = scored.mincost }
    else { B.ub_source = "sifting"; ub_value = sifting.mincost }
  in
  B.make ~seed (B.counting_lower kind mt)

let seeded_bound ?trace ?weights ?(kind = Ovo_core.Compact.Bdd) tt =
  let mt = Ovo_boolfun.Mtable.of_truthtable tt in
  (* let-bound in order: labelled arguments are evaluated right to
     left, and a --prune trace keeps the scorer's span before sifting's *)
  let scored = run ?trace ?weights ~kind tt in
  let sifting = Ovo_ordering.Sifting.run ?trace ~kind mt in
  seeded_bound_of ~kind ~scored ~sifting mt

let portfolio_member ?weights ?kind () =
  ("scored", fun ~metrics tt -> run ~metrics ?weights ?kind tt)
