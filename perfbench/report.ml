module Json = Ovo_obs.Json

type outcome = { attempted : int; failed : int; wrong : int }

(* The result line: exactly the metric list of [Names], so a run can
   neither drop a metric nor invent one. *)
let line ~(outcome : outcome) ~(expected : Names.metric list) values =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (m : Names.metric) -> m.name = name) expected)
      then invalid_arg ("Report.line: unexpected metric " ^ name))
    values;
  let metric (m : Names.metric) =
    match List.assoc_opt m.name values with
    | None -> invalid_arg ("Report.line: missing metric " ^ m.name)
    | Some v ->
        ( m.name,
          Json.Obj [ ("value", Json.Float v); ("unit", Json.String m.unit) ] )
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (outcome.wrong = 0));
         ("attempted", Json.Int (max 1 outcome.attempted));
         ("failed", Json.Int outcome.failed);
         ("metrics", Json.Obj (List.map metric expected));
       ])

let fail_ratio o =
  if o.attempted = 0 then 0. else float o.failed /. float o.attempted

(* VmHWM: the resident-set high-water mark the kernel keeps per
   process. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path In_channel.input_lines
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
  |> function
  | Some kb -> float kb /. 1024.
  | None -> failwith ("no VmHWM in " ^ path)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")
