type better = Lower | Higher

type metric = { name : string; unit : string; better : better }

let m ?(better = Lower) name unit = { name; unit; better }

(* Every untraced run prints all of these, whatever the workload; the
   README says what each one means on the exact and the serve
   workloads. *)
let end_to_end =
  [
    m "setup_s" "s";
    m "solve_s" "s";
    m "warm_p50_ms" "ms";
    m "peak_rss_mb" "MB";
  ]

(* Every traced run prints all of these; a layer the workload does not
   exercise reports 0. *)
let per_layer =
  [
    m "dp.sweep_s" "s";
    m "dp.backtrack_s" "s";
    m "dp.hump_s" "s";
    m "dp.layer_max_s" "s";
    m ~better:Higher "dp.cells_per_s" "1/s";
    m "dp.table_cells" "count";
    m "dp.cost_probes" "count";
    m "dp.states_materialised" "count";
    m "dp.node_creations" "count";
    m "dp.node_table_copies" "count";
    m "gc.minor_collections" "count";
    m "gc.major_collections" "count";
    m "gc.minor_words" "words";
    m "gc.promoted_words" "words";
    m "gc.pause_s" "s";
    m "gc.pause_share" "1";
    m "gc.lost_events" "count";
    m "engine.busy_s" "s";
    m "engine.idle_share" "1";
    m "engine.serial_s" "s";
    m "engine.imbalance_s" "s";
    m "pack.peak_layer_bytes" "B";
    m "pack.peak_resident_bytes" "B";
    m "seed.wall_s" "s";
    m "seed.sift_s" "s";
    m "seed.gap" "1";
    m ~better:Higher "prune.states_pruned" "count";
    m "prune.kept_share" "1";
    m "serve.canon_ms" "ms";
    m "serve.cache_probe_ms" "ms";
    m "serve.dp_ms" "ms";
    m ~better:Higher "serve.cache_hit_ratio" "1";
    m ~better:Higher "serve.cache_hits" "count";
    m "serve.cache_misses" "count";
    m ~better:Higher "trace.samples" "count";
    m "trace.overhead_ratio" "1";
  ]

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (fun c ->
         match c with
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s
  && match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false
