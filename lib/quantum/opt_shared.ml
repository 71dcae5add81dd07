module Shared = Ovo_core.Shared

module Inst = Opt_generic.Make (Shared.State)

type subroutine = Inst.subroutine

let name = Inst.name
let fs_star = Inst.fs_star
let simple_split = Inst.simple_split
let opt_obdd = Inst.opt_obdd
let theorem10 = Inst.theorem10
let tower = Inst.tower

let minimize_mtables ?(kind = Ovo_core.Compact.Bdd) ~ctx sub mts =
  let base = Shared.initial kind mts in
  let state, cost = Inst.run ctx sub ~base (Shared.free base) in
  (Shared.of_state state, cost)

let minimize ?kind ~ctx sub tts =
  minimize_mtables ?kind ~ctx sub
    (Array.map Ovo_boolfun.Mtable.of_truthtable tts)
