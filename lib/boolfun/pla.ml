type cube = { care : int; value : int; outs : int }
(* [care] has bit j set when input j is constrained; [value] gives the
   constrained bits; [outs] has bit j set when the cube belongs to output
   j's cover. *)

type t = {
  inputs : int;
  outputs : int;
  cubes : cube list;
  input_names : string array option;
  output_names : string array option;
}

let inputs p = p.inputs
let outputs p = p.outputs
let num_cubes p = List.length p.cubes
let input_names p = p.input_names

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let of_string text =
  let fail line msg = failwith (Printf.sprintf "Pla: line %d: %s" line msg) in
  let ni = ref (-1) and no = ref (-1) and np = ref (-1) in
  let in_names = ref None and out_names = ref None in
  let cubes = ref [] in
  let finished = ref false in
  let parse_cube lineno in_part out_part =
    if String.length in_part <> !ni then fail lineno "input part width mismatch";
    if String.length out_part <> !no then fail lineno "output part width mismatch";
    let care = ref 0 and value = ref 0 and outs = ref 0 in
    String.iteri
      (fun j c ->
        match c with
        | '0' -> care := !care lor (1 lsl j)
        | '1' ->
            care := !care lor (1 lsl j);
            value := !value lor (1 lsl j)
        | '-' -> ()
        | _ -> fail lineno "bad input-part character")
      in_part;
    String.iteri
      (fun j c ->
        match c with
        | '1' -> outs := !outs lor (1 lsl j)
        | '0' | '-' | '~' -> ()
        | _ -> fail lineno "bad output-part character")
      out_part;
    cubes := { care = !care; value = !value; outs = !outs } :: !cubes
  in
  let handle lineno raw =
    let line =
      match String.index_opt raw '#' with
      | None -> raw
      | Some i -> String.sub raw 0 i
    in
    match split_ws line with
    | [] -> ()
    | _ when !finished -> ()
    | ".i" :: [ v ] -> ni := int_of_string v
    | ".o" :: [ v ] -> no := int_of_string v
    | ".p" :: [ v ] -> np := int_of_string v
    | ".ilb" :: names -> in_names := Some (Array.of_list names)
    | ".ob" :: names -> out_names := Some (Array.of_list names)
    | (".e" | ".end") :: _ -> finished := true
    | word :: _ when String.length word > 0 && word.[0] = '.' ->
        () (* unsupported directives are skipped *)
    | [ in_part; out_part ] when !ni >= 0 && !no >= 0 ->
        parse_cube lineno in_part out_part
    | _ -> fail lineno "unparsable line"
  in
  List.iteri
    (fun i line -> handle (i + 1) line)
    (String.split_on_char '\n' text);
  if !ni < 0 then failwith "Pla: missing .i";
  if !no < 0 then failwith "Pla: missing .o";
  let cubes = List.rev !cubes in
  if !np >= 0 && List.length cubes <> !np then
    failwith "Pla: .p does not match the number of cubes";
  {
    inputs = !ni;
    outputs = !no;
    cubes;
    input_names = !in_names;
    output_names = !out_names;
  }

let of_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  of_string text

let output_table p j =
  if j < 0 || j >= p.outputs then invalid_arg "Pla.output_table";
  Truthtable.of_fun p.inputs (fun code ->
      List.exists
        (fun c -> c.outs land (1 lsl j) <> 0 && code land c.care = c.value)
        p.cubes)

let tables p = Array.init p.outputs (output_table p)

let of_truthtables ts =
  match Array.length ts with
  | 0 -> invalid_arg "Pla.of_truthtables: empty"
  | m ->
      let n = Truthtable.arity ts.(0) in
      Array.iter
        (fun t ->
          if Truthtable.arity t <> n then
            invalid_arg "Pla.of_truthtables: arity mismatch")
        ts;
      let cubes = ref [] in
      for code = (1 lsl n) - 1 downto 0 do
        let outs = ref 0 in
        for j = 0 to m - 1 do
          if Truthtable.eval ts.(j) code then outs := !outs lor (1 lsl j)
        done;
        if !outs <> 0 then
          cubes := { care = (1 lsl n) - 1; value = code; outs = !outs } :: !cubes
      done;
      {
        inputs = n;
        outputs = m;
        cubes = !cubes;
        input_names = None;
        output_names = None;
      }

let to_string p =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf ".i %d\n.o %d\n" p.inputs p.outputs);
  (match p.input_names with
  | Some names ->
      Buffer.add_string buf (".ilb " ^ String.concat " " (Array.to_list names) ^ "\n")
  | None -> ());
  (match p.output_names with
  | Some names ->
      Buffer.add_string buf (".ob " ^ String.concat " " (Array.to_list names) ^ "\n")
  | None -> ());
  Buffer.add_string buf (Printf.sprintf ".p %d\n" (num_cubes p));
  List.iter
    (fun c ->
      for j = 0 to p.inputs - 1 do
        if c.care land (1 lsl j) = 0 then Buffer.add_char buf '-'
        else if c.value land (1 lsl j) <> 0 then Buffer.add_char buf '1'
        else Buffer.add_char buf '0'
      done;
      Buffer.add_char buf ' ';
      for j = 0 to p.outputs - 1 do
        Buffer.add_char buf (if c.outs land (1 lsl j) <> 0 then '1' else '0')
      done;
      Buffer.add_char buf '\n')
    p.cubes;
  Buffer.add_string buf ".e\n";
  Buffer.contents buf
