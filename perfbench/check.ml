module Tt = Ovo_boolfun.Truthtable
module Fs = Ovo_core.Fs

type verdict = Ok | Wrong of string

let is_permutation n order =
  Array.length order = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun v ->
      v >= 0 && v < n
      && (not seen.(v))
      &&
      (seen.(v) <- true;
       true))
    order

(* Theorem 5: an unpruned FS solve scans exactly n·3^(n-1) table cells. *)
let theorem5_cells n =
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  n * pow 3 (n - 1)

let exact ?table_cells ?pinned tt (r : Fs.result) =
  let n = Tt.arity tt in
  if not (is_permutation n r.Fs.order) then Wrong "order is not a permutation"
  else if not (Ovo_core.Diagram.check_tt r.Fs.diagram tt) then
    Wrong "diagram does not compute the table"
  else if Ovo_core.Eval_order.size tt r.Fs.order <> r.Fs.size then
    Wrong
      (Printf.sprintf "order re-evaluates to size %d, reply says %d"
         (Ovo_core.Eval_order.size tt r.Fs.order)
         r.Fs.size)
  else if Ovo_core.Eval_order.mincost tt r.Fs.order <> r.Fs.mincost then
    Wrong
      (Printf.sprintf "order re-evaluates to cost %d, result says %d"
         (Ovo_core.Eval_order.mincost tt r.Fs.order)
         r.Fs.mincost)
  else
    match (table_cells, pinned) with
    | Some cells, _ when cells <> theorem5_cells n ->
        Wrong
          (Printf.sprintf "table_cells %d, Theorem 5 says %d" cells
             (theorem5_cells n))
    | _, Some opt when r.Fs.mincost <> opt ->
        Wrong (Printf.sprintf "mincost %d, pinned optimum %d" r.Fs.mincost opt)
    | _ -> Ok

(* Served answers carry the order root-first; [Eval_order] reads it
   last-placed-first. *)
let reply ?pinned ~agreed tt (s : Ovo_serve.Solver.solved) =
  let n = Tt.arity tt in
  let open Ovo_serve.Solver in
  if not (is_permutation n s.order) then Wrong "order is not a permutation"
  else
    let cost =
      Ovo_core.Eval_order.mincost tt (Ovo_core.Eval_order.read_first s.order)
    in
    if cost <> s.mincost then
      Wrong (Printf.sprintf "order re-evaluates to %d, reply says %d" cost
               s.mincost)
    else
      match (agreed s.digest s.mincost, pinned) with
      | Some other, _ ->
          Wrong
            (Printf.sprintf "digest %s answered %d earlier, %d now" s.digest
               other s.mincost)
      | None, Some opt when s.mincost <> opt ->
          Wrong (Printf.sprintf "mincost %d, pinned optimum %d" s.mincost opt)
      | None, _ -> Ok

(* Memory of the first answer per digest: [agree d c] is [Some earlier]
   when [d] was answered before with a different cost. *)
let agreement () =
  let seen = Hashtbl.create 1024 in
  fun digest cost ->
    match Hashtbl.find_opt seen digest with
    | Some c when c <> cost -> Some c
    | Some _ -> None
    | None ->
        Hashtbl.add seen digest cost;
        None

let tally verdicts =
  let bad = List.length (List.filter (fun v -> v <> Ok) verdicts) in
  { Report.attempted = List.length verdicts; failed = bad; wrong = bad }
