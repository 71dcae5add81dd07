module Compact = Ovo_core.Compact
module Fs = Ovo_core.Fs

module Inst = Opt_generic.Make (Ovo_core.Fs_star.State)

type ctx = Qctx.t = {
  rng : Random.State.t option;
  epsilon : float;
  stats : Qsearch.stats;
  engine : Ovo_core.Engine.t;
  metrics : Ovo_core.Metrics.t;
  trace : Ovo_obs.Trace.t;
  membudget : Ovo_core.Membudget.t option;
  bound : Ovo_core.Bound.t option;
}

let make_ctx = Qctx.make

type subroutine = Inst.subroutine

let name = Inst.name
let apply = Inst.apply
let fs_star = Inst.fs_star
let simple_split = Inst.simple_split
let opt_obdd = Inst.opt_obdd
let theorem10 = Inst.theorem10
let tower = Inst.tower

let minimize_mtable ?(kind = Compact.Bdd) ~ctx sub mt =
  let base = Compact.initial kind mt in
  let state, cost = Inst.run ctx sub ~base (Compact.free base) in
  let r = Fs.of_state state in
  (* deterministic simulation must land at or below the seeded upper
     bound — an excess proves the bound provider unsound.  Error
     injection ([rng] armed) legitimately lands above it. *)
  (match (ctx.rng, ctx.bound) with
  | None, Some b -> Ovo_core.Bound.check_final b r.Fs.mincost
  | _ -> ());
  (r, cost)

let minimize ?kind ~ctx sub tt =
  minimize_mtable ?kind ~ctx sub (Ovo_boolfun.Mtable.of_truthtable tt)
