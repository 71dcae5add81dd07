type snapshot = { table_cells : int; compactions : int; node_creations : int }

let of_metrics (s : Metrics.snapshot) =
  {
    table_cells = s.Metrics.s_table_cells;
    compactions = s.Metrics.s_compactions;
    node_creations = s.Metrics.s_node_creations;
  }

let reset () = Metrics.reset Metrics.ambient
let snapshot () = of_metrics (Metrics.snapshot Metrics.ambient)

let diff a b =
  {
    table_cells = a.table_cells - b.table_cells;
    compactions = a.compactions - b.compactions;
    node_creations = a.node_creations - b.node_creations;
  }

let add_cells n = Metrics.add_cells Metrics.ambient n
let add_compaction () = Metrics.add_compaction Metrics.ambient
let add_node () = Metrics.add_nodes Metrics.ambient 1

let pp ppf s =
  Format.fprintf ppf "cells=%d compactions=%d nodes=%d" s.table_cells
    s.compactions s.node_creations
