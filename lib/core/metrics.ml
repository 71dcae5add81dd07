type t = {
  mutable table_cells : int;
  mutable cost_probes : int;
  mutable compactions : int;
  mutable node_creations : int;
  mutable states_materialised : int;
}

type snapshot = {
  s_table_cells : int;
  s_cost_probes : int;
  s_compactions : int;
  s_node_creations : int;
  s_states_materialised : int;
  s_node_table_copies : int;
}

let create () =
  {
    table_cells = 0;
    cost_probes = 0;
    compactions = 0;
    node_creations = 0;
    states_materialised = 0;
  }

let snapshot m =
  {
    s_table_cells = m.table_cells;
    s_cost_probes = m.cost_probes;
    s_compactions = m.compactions;
    s_node_creations = m.node_creations;
    s_states_materialised = m.states_materialised;
    s_node_table_copies = 0;
  }

let diff a b =
  {
    s_table_cells = a.s_table_cells - b.s_table_cells;
    s_cost_probes = a.s_cost_probes - b.s_cost_probes;
    s_compactions = a.s_compactions - b.s_compactions;
    s_node_creations = a.s_node_creations - b.s_node_creations;
    s_states_materialised = a.s_states_materialised - b.s_states_materialised;
    s_node_table_copies = a.s_node_table_copies - b.s_node_table_copies;
  }

let merge_into ~into m =
  into.table_cells <- into.table_cells + m.table_cells;
  into.cost_probes <- into.cost_probes + m.cost_probes;
  into.compactions <- into.compactions + m.compactions;
  into.node_creations <- into.node_creations + m.node_creations;
  into.states_materialised <- into.states_materialised + m.states_materialised

let add_cells m n = m.table_cells <- m.table_cells + n
let add_probe m = m.cost_probes <- m.cost_probes + 1
let add_compaction m = m.compactions <- m.compactions + 1
let add_nodes m n = m.node_creations <- m.node_creations + n
let add_state m = m.states_materialised <- m.states_materialised + 1

let pp ppf s =
  Format.fprintf ppf
    "cells=%d probes=%d compactions=%d nodes=%d states=%d copies=%d"
    s.s_table_cells s.s_cost_probes s.s_compactions s.s_node_creations
    s.s_states_materialised s.s_node_table_copies

(* JSON goes through the shared ovo_obs emitter — the single source of
   truth for formatting/escaping — so [--stats json], trace span
   attributes and the bench files all agree on one schema. *)
let to_args s =
  Ovo_obs.Json.
    [
      ("table_cells", Int s.s_table_cells);
      ("cost_probes", Int s.s_cost_probes);
      ("compactions", Int s.s_compactions);
      ("node_creations", Int s.s_node_creations);
      ("states_materialised", Int s.s_states_materialised);
      ("node_table_copies", Int s.s_node_table_copies);
    ]

let to_json_value s = Ovo_obs.Json.Obj (to_args s)
let to_json s = Ovo_obs.Json.to_string (to_json_value s)

let of_json_value j =
  let field name =
    match Ovo_obs.Json.member name j with
    | Some (Ovo_obs.Json.Int i) -> Some i
    | _ -> None
  in
  match
    ( field "table_cells",
      field "cost_probes",
      field "compactions",
      field "node_creations",
      field "states_materialised",
      field "node_table_copies" )
  with
  | Some c, Some p, Some k, Some n, Some s, Some y ->
      Some
        {
          s_table_cells = c;
          s_cost_probes = p;
          s_compactions = k;
          s_node_creations = n;
          s_states_materialised = s;
          s_node_table_copies = y;
        }
  | _ -> None

let of_json text =
  match Ovo_obs.Json.parse text with
  | Ok j -> of_json_value j
  | Error _ -> None
