module Trace = Ovo_obs.Trace
module Json = Ovo_obs.Json

(* A span of the benchmark's recording tracer, with its duration. *)
type t = {
  name : string;
  cat : string;
  start : float;
  dur : float;
  args : (string * Json.t) list;
}

let of_trace (s : Trace.span) =
  {
    name = s.Trace.name;
    cat = s.Trace.cat;
    start = s.Trace.start;
    dur = s.Trace.stop -. s.Trace.start;
    args = s.Trace.args;
  }

let layer_k s =
  if s.cat = "dp" then Scanf.sscanf_opt s.name "layer k=%d%!" Fun.id else None

let worker s =
  if s.cat = "engine" then Scanf.sscanf_opt s.name "domain %d%!" Fun.id
  else None

let int_arg key s =
  Option.bind (List.assoc_opt key s.args) Json.to_int_opt
  |> Option.value ~default:0

let total name spans =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. s.dur else acc)
    0. spans

let within outer spans =
  List.filter
    (fun s -> s.start >= outer.start && s.start +. s.dur <= outer.start +. outer.dur)
    spans

let durations name spans =
  List.filter_map (fun s -> if s.name = name then Some s.dur else None) spans

type layer_engine = {
  k : int;
  wall : float;
  busy : float array;  (** by worker index *)
}

type engine = {
  layers : layer_engine list;
  layer_s : float;  (** summed wall of the DP layer spans *)
  busy_s : float;  (** summed worker-domain spans *)
  idle_share : float;
  imbalance_s : float;
}

(* Attribute each worker-domain span to the layer span enclosing it.
   Seq records no worker spans: everything is zero but [layer_s]. *)
let engine ~domains spans =
  let doms = List.filter_map (fun s -> Option.map (fun w -> (w, s)) (worker s)) spans in
  let layers =
    List.filter_map
      (fun l ->
        Option.map
          (fun k ->
            let busy = Array.make (max 1 domains) 0. in
            List.iter
              (fun (w, d) ->
                if d.start >= l.start && d.start +. d.dur <= l.start +. l.dur
                   && w < Array.length busy
                then busy.(w) <- busy.(w) +. d.dur)
              doms;
            { k; wall = l.dur; busy })
          (layer_k l))
      spans
  in
  let sum f = List.fold_left (fun a l -> a +. f l) 0. layers in
  let layer_s = sum (fun l -> l.wall) in
  if doms = [] then
    { layers; layer_s; busy_s = 0.; idle_share = 0.; imbalance_s = 0. }
  else
    let busy l = Array.fold_left ( +. ) 0. l.busy in
    let busy_s = sum busy in
    let capacity = float domains *. layer_s in
    let spread l =
      let used = List.filter (fun b -> b > 0.) (Array.to_list l.busy) in
      match used with
      | [] | [ _ ] -> 0.
      | b :: _ ->
          List.fold_left max b used -. List.fold_left min b used
    in
    {
      layers;
      layer_s;
      busy_s;
      idle_share = (if capacity > 0. then 1. -. (busy_s /. capacity) else 0.);
      imbalance_s = sum spread;
    }

(* The DP figures of every [fs.run] span: its layer spans give per-k
   wall time, and their metrics arguments (with the reconstruct span's)
   the per-solve counts. *)
let dp_metrics ~arity spans =
  let solves =
    List.filter_map
      (fun fs -> if fs.name = "fs.run" then Some (fs, within fs spans) else None)
      spans
  in
  let per_solve f = Pct.median_or_zero (List.map f solves) in
  let count arg =
    per_solve (fun (_, inner) ->
        float
          (List.fold_left
             (fun a s ->
               if layer_k s <> None || s.name = "dp.reconstruct" then
                 a + int_arg arg s
               else a)
             0 inner))
  in
  let by_k =
    List.sort_uniq compare
      (List.concat_map (fun (_, inner) -> List.filter_map layer_k inner) solves)
    |> List.map (fun k ->
           ( k,
             Pct.median_or_zero
               (List.concat_map
                  (fun (_, inner) ->
                    List.filter_map
                      (fun s -> if layer_k s = Some k then Some s.dur else None)
                      inner)
                  solves) ))
  in
  let hump k = abs (k - (arity / 2)) <= 1 in
  let sweep = per_solve (fun (_, inner) -> total "dp.sweep" inner) in
  let cells = count "table_cells" in
  ( [
      ("dp.sweep_s", sweep);
      ( "dp.backtrack_s",
        per_solve (fun (fs, inner) -> fs.dur -. total "dp.sweep" inner) );
      ( "dp.hump_s",
        List.fold_left (fun a (k, d) -> if hump k then a +. d else a) 0. by_k );
      ("dp.layer_max_s", List.fold_left (fun a (_, d) -> Float.max a d) 0. by_k);
      ("dp.cells_per_s", if sweep > 0. then cells /. sweep else 0.);
      ("dp.table_cells", cells);
      ("dp.cost_probes", count "cost_probes");
      ("dp.states_materialised", count "states_materialised");
      ("dp.node_creations", count "node_creations");
      ("dp.node_table_copies", count "node_table_copies");
    ],
    by_k )
