let minimize_mtables ?(kind = Ovo_core.Compact.Bdd) ~ctx sub mts =
  let base = Ovo_core.Shared.initial kind mts in
  let state, cost = Opt_obdd.apply sub ctx base (Ovo_core.Compact.free base) in
  (Ovo_core.Shared.of_state state, cost)

let minimize ?kind ~ctx sub tts =
  minimize_mtables ?kind ~ctx sub
    (Array.map Ovo_boolfun.Mtable.of_truthtable tts)
