let log_src = Logs.Src.create "ovo.core.fs" ~doc:"Friedman-Supowit DP"

module Log = (val Logs.src_log log_src : Logs.LOG)

module State = struct
  type state = Compact.state

  let materialise ~metrics st h = Compact.materialise ~metrics st h
  let mincost (st : Compact.state) = st.mincost
  let free = Compact.free
  let next_id (st : Compact.state) = st.next_id
  let cells (st : Compact.state) = Array.length st.table
  let load = Compact.load

  let probe ~metrics ~(base : Compact.state) src r ~bit ~next_id =
    Compact.probe ~metrics base.kind src r ~bit ~next_id

  let write ~metrics ~(base : Compact.state) src r dst dr ~bit ~next_id =
    Compact.write ~metrics base.kind src r dst dr ~bit ~next_id

  let step_cost ~base:_ _ _ ~width = width
end

module Dp = Subset_dp.Make (State)

type t = Dp.t = {
  j_set : Varset.t;
  upto : int;
  table : Subset_dp.table;
  layer : (Varset.t, Compact.state) Hashtbl.t;
}

(* keep the module's historical error messages *)
let rebrand f =
  try f ()
  with Invalid_argument m when String.length m > 9
                              && String.sub m 0 9 = "Subset_dp" ->
    invalid_arg ("Fs_star" ^ String.sub m 9 (String.length m - 9))

let run ?trace ?engine ?cancel ?metrics ?membudget ?prune ?on_layer ?resume
    ?upto ~(base : Compact.state) j_set =
  let d =
    rebrand (fun () ->
        Dp.run ?trace ?engine ?cancel ?metrics ?membudget ?prune ?on_layer
          ?resume ?upto ~base j_set)
  in
  Log.debug (fun m ->
      m "FS* over %a from |I|=%d: layer %d of %d states" Varset.pp j_set
        (Varset.cardinal base.Compact.assigned)
        d.upto (Hashtbl.length d.layer));
  d

let costs ?trace ?engine ?cancel ?metrics ?membudget ?prune ?on_layer ?resume
    ?upto ~(base : Compact.state) j_set =
  rebrand (fun () ->
      Dp.costs ?trace ?engine ?cancel ?metrics ?membudget ?prune ?on_layer
        ?resume ?upto ~base j_set)

let state_of = Dp.state_of
let mincost_of = Dp.mincost_of

let complete ?trace ?engine ?cancel ?metrics ?membudget ?prune ?on_layer
    ?resume ~base j_set =
  rebrand (fun () ->
      Dp.complete ?trace ?engine ?cancel ?metrics ?membudget ?prune ?on_layer
        ?resume ~base j_set)
