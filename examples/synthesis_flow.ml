(* A miniature synthesis flow, end to end:

     BLIF netlist  →  structural elaboration  →  exact shared ordering
     →  a live Bdd manager reordered to it  →  incremental edits
     →  re-sifting  →  exchange-format export.

   This is the shape in which the exact optimiser earns its keep inside
   a real tool: optimise once, keep working in a reorderable manager.

   Run with:  dune exec examples/synthesis_flow.exe *)

module Bl = Ovo_boolfun.Blif
module S = Ovo_core.Shared
module B = Ovo_bdd.Bdd

let netlist =
  {|.model alu_slice
.inputs a b cin op0 op1
.outputs out cout
.names a b axb
10 1
01 1
.names axb cin sum
10 1
01 1
.names a b cin maj
11- 1
1-1 1
-11 1
.names a b andab
11 1
.names a b orab
1- 1
-1 1
# op: 00 = add, 01 = and, 10 = or, 11 = xor
.names op0 op1 sum andab orab axb out
001--- 1
10-1-- 1
01--1- 1
11---1 1
.names op0 op1 maj cout
001 1
.end|}

let () =
  let m = Bl.of_string netlist in
  let outputs = Array.of_list (List.map snd (Bl.tables m)) in
  let names = Array.of_list (Bl.output_names m) in
  let n = List.length (Bl.input_names m) in
  Printf.printf "netlist %s: %d inputs, %d outputs\n" (Bl.model_name m) n
    (Array.length outputs);

  (* 1. exact shared ordering for all outputs *)
  let r = S.minimize (Array.map Ovo_boolfun.Mtable.of_truthtable outputs) in
  Printf.printf "exact shared optimum: %d nodes, order (root first): %s\n"
    r.S.size
    (String.concat " "
       (List.map
          (fun l -> List.nth (Bl.input_names m) l)
          (List.rev (Array.to_list r.S.order))));

  (* 2. load into a reorderable manager under that order *)
  let rf = Array.init n (fun i -> r.S.order.(n - 1 - i)) in
  let man = B.create ~order:rf n in
  let handles = Array.map (B.of_truthtable man) outputs in
  Array.iter (B.protect man) handles;
  Printf.printf "manager holds the netlist at %d live nodes\n" (B.live_size man);

  (* 3. an ECO: also expose out & !cout *)
  let eco = B.and_ man handles.(0) (B.not_ man handles.(1)) in
  B.protect man eco;
  Printf.printf "after the ECO: %d live nodes\n" (B.live_size man);

  (* 4. re-sift to absorb the change, collect garbage *)
  B.sift man;
  B.compress man;
  Printf.printf "after sifting + GC: %d live nodes (order: %s)\n"
    (B.live_size man)
    (String.concat " "
       (List.map
          (fun l -> List.nth (Bl.input_names m) l)
          (Array.to_list (B.order man))));

  (* 5. export the first output in the exchange format *)
  Array.iteri
    (fun j h ->
      if j = 0 then begin
        let tt = B.to_truthtable man h in
        let d = Ovo_core.Eval_order.diagram tt
            (Ovo_core.Eval_order.read_first (B.order man))
        in
        let text = Ovo_core.Diagram.serialize d in
        Printf.printf "serialized %s: %d bytes, reloads to size %d\n" names.(j)
          (String.length text)
          (Ovo_core.Diagram.size (Ovo_core.Diagram.deserialize text))
      end)
    handles
