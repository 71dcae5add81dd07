module T = Ovo_boolfun.Truthtable
module E = Ovo_core.Eval_order
module H = Ovo_metrics.Histo
module Json = Ovo_obs.Json
module Trace = Ovo_obs.Trace
module Mtable = Ovo_boolfun.Mtable
module Ord = Ovo_ordering

type orderer = { o_name : string; o_order : T.t -> int array }

let default_orderers ?weights ?kind ?(seed = 0x0BDD) () =
  [
    { o_name = "scored"; o_order = (fun tt -> Scorer.order ?weights tt) };
    {
      o_name = "influence";
      o_order = (fun tt -> (Ord.Influence.run ?kind tt).order);
    };
    {
      o_name = "sifting";
      o_order = (fun tt -> (Ord.Sifting.run ?kind (Mtable.of_truthtable tt)).order);
    };
    {
      o_name = "window";
      o_order = (fun tt -> (Ord.Window.run ?kind (Mtable.of_truthtable tt)).order);
    };
    {
      o_name = "random";
      o_order =
        (fun tt ->
          (* content-keyed stream: the same function always draws the
             same permutation, whatever its position in the corpus *)
          Ord.Perm.random (Random.State.make [| seed; T.hash tt |]) (T.arity tt));
    };
  ]

type stat = {
  s_name : string;
  s_rows : int;
  s_optimal : int;
  s_mean_gap : float;
  s_max_gap : float;
  s_p50_gap : float;
  s_p90_gap : float;
  s_mean_regret : float;
  s_max_regret : int;
}

let evaluate ?(trace = Trace.null) ?kind orderers rows =
  List.map
    (fun o ->
      let st = ref None in
      Trace.with_span trace ~cat:"learn"
        ~args:(fun () ->
          match !st with
          | None -> [ ("rows", Json.Int (List.length rows)) ]
          | Some s ->
              [
                ("rows", Json.Int s.s_rows);
                ("mean_gap", Json.Float s.s_mean_gap);
              ])
        ("learn.gap." ^ o.o_name)
        (fun () ->
          let histo = H.create () in
          let sum_gap = ref 0. and max_gap = ref 0. in
          let sum_regret = ref 0 and max_regret = ref 0 in
          let optimal = ref 0 in
          List.iter
            (fun (r : Dataset.row) ->
              let tt = T.of_string r.Dataset.table in
              let cost = E.mincost ?kind tt (o.o_order tt) in
              let opt = r.Dataset.costs.Dataset.c_opt in
              (* a constant function has optimum 0; both are then 0 *)
              let gap =
                if opt = 0 then 1.
                else float_of_int cost /. float_of_int opt
              in
              let regret = cost - opt in
              H.record histo gap;
              sum_gap := !sum_gap +. gap;
              if gap > !max_gap then max_gap := gap;
              sum_regret := !sum_regret + regret;
              if regret > !max_regret then max_regret := regret;
              if regret = 0 then incr optimal)
            rows;
          let count = List.length rows in
          let fcount = float_of_int (max 1 count) in
          let snap = H.snapshot histo in
          let q p = Option.value ~default:0. (H.quantile snap p) in
          let s =
            {
              s_name = o.o_name;
              s_rows = count;
              s_optimal = !optimal;
              s_mean_gap = !sum_gap /. fcount;
              s_max_gap = !max_gap;
              s_p50_gap = q 0.5;
              s_p90_gap = q 0.9;
              s_mean_regret = float_of_int !sum_regret /. fcount;
              s_max_regret = !max_regret;
            }
          in
          st := Some s;
          s))
    orderers

let stat_to_json s =
  Json.Obj
    [
      ("orderer", Json.String s.s_name);
      ("rows", Json.Int s.s_rows);
      ("optimal", Json.Int s.s_optimal);
      ("mean_gap", Json.Float s.s_mean_gap);
      ("max_gap", Json.Float s.s_max_gap);
      ("p50_gap", Json.Float s.s_p50_gap);
      ("p90_gap", Json.Float s.s_p90_gap);
      ("mean_regret", Json.Float s.s_mean_regret);
      ("max_regret", Json.Int s.s_max_regret);
    ]

let report ppf stats =
  Format.fprintf ppf "%-10s %5s %8s %9s %8s %8s %8s %10s@." "orderer" "rows"
    "optimal" "mean-gap" "p50-gap" "p90-gap" "max-gap" "max-regret";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-10s %5d %8d %9.4f %8.3f %8.3f %8.3f %10d@."
        s.s_name s.s_rows s.s_optimal s.s_mean_gap s.s_p50_gap s.s_p90_gap
        s.s_max_gap s.s_max_regret)
    stats
