let escape_with ~quote s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '"' when quote -> Buffer.add_string b "\\\""
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let escape_label = escape_with ~quote:true
(* Contents of a HELP line: backslash and newline escaped. *)
let escape_help = escape_with ~quote:false

let labels_to_string labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
             labels)
      ^ "}"

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

(* Coarse exposition boundaries: every 8th fine bucket is an octave
   boundary, so cumulating fine counts up to them loses nothing. *)
let le_indices = List.init (Histo.num_core / 8) (fun i -> 8 * (i + 1))

let render_histogram buf name labels (s : Histo.snapshot) =
  let base = labels_to_string labels in
  let with_le le =
    let inner =
      (match labels with [] -> "" | _ -> String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
           labels) ^ ",")
    in
    Printf.sprintf "{%sle=\"%s\"}" inner le
  in
  let cum = ref 0 in
  let upto = ref 0 in
  let add_bucket le_str idx_hi =
    while !upto <= idx_hi do
      cum := !cum + s.Histo.counts.(!upto);
      incr upto
    done;
    Buffer.add_string buf
      (Printf.sprintf "%s_bucket%s %d\n" name (with_le le_str) !cum)
  in
  (* the underflow bucket is the ladder's floor *)
  add_bucket (float_str Histo.min_bound) 0;
  List.iter
    (fun i -> add_bucket (Printf.sprintf "%g" (Histo.bucket_upper i)) i)
    le_indices;
  Buffer.add_string buf
    (Printf.sprintf "%s_bucket%s %d\n" name (with_le "+Inf") s.Histo.count);
  Buffer.add_string buf
    (Printf.sprintf "%s_sum%s %s\n" name base (float_str s.Histo.sum));
  Buffer.add_string buf
    (Printf.sprintf "%s_count%s %d\n" name base s.Histo.count)

let render reg =
  let buf = Buffer.create 4096 in
  let last_name = ref "" in
  List.iter
    (fun (s : Registry.sample) ->
      if s.Registry.s_name <> !last_name then begin
        last_name := s.Registry.s_name;
        if s.Registry.s_help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" s.Registry.s_name
               (escape_help s.Registry.s_help));
        let ty =
          match s.Registry.s_value with
          | Registry.Counter _ -> "counter"
          | Registry.Gauge _ -> "gauge"
          | Registry.Histogram _ -> "histogram"
        in
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" s.Registry.s_name ty)
      end;
      match s.Registry.s_value with
      | Registry.Counter v ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" s.Registry.s_name
               (labels_to_string s.Registry.s_labels)
               v)
      | Registry.Gauge v ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" s.Registry.s_name
               (labels_to_string s.Registry.s_labels)
               (float_str v))
      | Registry.Histogram h ->
          render_histogram buf s.Registry.s_name s.Registry.s_labels h)
    (Registry.samples reg);
  Buffer.contents buf
