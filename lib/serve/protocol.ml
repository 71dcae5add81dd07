module Json = Ovo_obs.Json
module Compact = Ovo_core.Compact
module Engine = Ovo_core.Engine

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  let tcp spec =
    match String.rindex_opt spec ':' with
    | Some i when i > 0 && i < String.length spec - 1 ->
        let host = String.sub spec 0 i in
        let port = String.sub spec (i + 1) (String.length spec - i - 1) in
        (match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
        | _ -> Error (`Msg (Printf.sprintf "invalid port in %S" spec)))
    | _ -> Error (`Msg (Printf.sprintf "expected host:port, got %S" spec))
  in
  match String.index_opt s ':' with
  | Some 4 when String.sub s 0 4 = "unix" ->
      Ok (Unix_sock (String.sub s 5 (String.length s - 5)))
  | Some 3 when String.sub s 0 3 = "tcp" ->
      tcp (String.sub s 4 (String.length s - 4))
  | _ ->
      if String.contains s '/' || not (String.contains s ':') then
        Ok (Unix_sock s)
      else tcp s

let addr_to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

type solve_params = {
  table : string;
  kind : Compact.kind;
  engine : Engine.t;
  deadline_ms : float option;
}

type metrics_format = Mjson | Mprom

type op =
  | Solve of solve_params
  | Solve_many of solve_params list
  | Stats
  | Metrics of metrics_format
  | Ping
  | Shutdown
type request = { id : int; op : op }

type solve_reply = {
  digest : string;
  mincost : int;
  size : int;
  order : int array;
  widths : int array;
  cached : bool;
  queue_ms : float;
  solve_ms : float;
}

type error_code =
  | Bad_request
  | Queue_full
  | Too_large
  | Shutting_down
  | Shard_down
  | Internal

let error_code_to_string = function
  | Bad_request -> "bad_request"
  | Queue_full -> "queue_full"
  | Too_large -> "too_large"
  | Shutting_down -> "shutting_down"
  | Shard_down -> "shard_down"
  | Internal -> "internal"

let error_code_of_string = function
  | "bad_request" -> Some Bad_request
  | "queue_full" -> Some Queue_full
  | "too_large" -> Some Too_large
  | "shutting_down" -> Some Shutting_down
  | "shard_down" -> Some Shard_down
  | "internal" -> Some Internal
  | _ -> None

type response =
  | Ok_solve of solve_reply
  | Ok_stats of Json.t
  | Ok_metrics of Json.t
  | Ok_prom of string
  | Pong
  | Bye
  | Cancelled of string
  | Error of {
      code : error_code;
      message : string;
      retry_after_ms : float option;
    }

type reply = { r_id : int; item : int option; body : response }

let reply ?item r_id body = { r_id; item; body }

(* ---------- encoding ---------- *)

let kind_to_string = function Compact.Bdd -> "bdd" | Compact.Zdd -> "zdd"

let kind_of_string = function
  | "bdd" -> Some Compact.Bdd
  | "zdd" -> Some Compact.Zdd
  | _ -> None

let int_array_json a = Json.List (Array.to_list a |> List.map (fun i -> Json.Int i))

let solve_fields (p : solve_params) =
  [ ("table", Json.String p.table);
    ("kind", Json.String (kind_to_string p.kind));
    ("engine", Json.String (Engine.to_string p.engine)) ]
  @ (match p.deadline_ms with
    | None -> []
    | Some ms -> [ ("deadline_ms", Json.Float ms) ])

let op_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Metrics _ -> "metrics"
  | Shutdown -> "shutdown"
  | Solve _ -> "solve"
  | Solve_many _ -> "solve_many"

let request_to_line { id; op } =
  let fields =
    match op with
    | Solve p -> solve_fields p
    | Solve_many items ->
        [ ( "items",
            Json.List
              (List.map (fun p -> Json.Obj (solve_fields p)) items) ) ]
    | Metrics fmt ->
        [ ( "format",
            Json.String
              (match fmt with Mjson -> "json" | Mprom -> "prometheus") ) ]
    | Stats | Ping | Shutdown -> []
  in
  Json.to_string
    (Json.Obj (("id", Json.Int id) :: ("op", Json.String (op_name op)) :: fields))

let reply_to_line { r_id; item; body } =
  let item_field =
    match item with None -> [] | Some k -> [ ("item", Json.Int k) ]
  in
  let fields =
    match body with
    | Ok_solve r ->
        [ ("id", Json.Int r_id); ("status", Json.String "ok");
          ("digest", Json.String r.digest);
          ("mincost", Json.Int r.mincost);
          ("size", Json.Int r.size);
          ("order", int_array_json r.order);
          ("widths", int_array_json r.widths);
          ("cached", Json.Bool r.cached);
          ("queue_ms", Json.Float r.queue_ms);
          ("solve_ms", Json.Float r.solve_ms) ]
    | Ok_stats s ->
        [ ("id", Json.Int r_id); ("status", Json.String "ok"); ("stats", s) ]
    | Ok_metrics m ->
        [ ("id", Json.Int r_id); ("status", Json.String "ok"); ("metrics", m) ]
    | Ok_prom text ->
        [ ("id", Json.Int r_id); ("status", Json.String "ok");
          ("prom", Json.String text) ]
    | Pong -> [ ("id", Json.Int r_id); ("status", Json.String "pong") ]
    | Bye -> [ ("id", Json.Int r_id); ("status", Json.String "bye") ]
    | Cancelled msg ->
        [ ("id", Json.Int r_id); ("status", Json.String "cancelled");
          ("message", Json.String msg) ]
    | Error e ->
        [ ("id", Json.Int r_id); ("status", Json.String "error");
          ("code", Json.String (error_code_to_string e.code));
          ("message", Json.String e.message) ]
        @ (match e.retry_after_ms with
          | None -> []
          | Some ms -> [ ("retry_after_ms", Json.Float ms) ])
  in
  Json.to_string (Json.Obj (fields @ item_field))

(* ---------- decoding ---------- *)

let ( let* ) = Result.bind
let err fmt = Printf.ksprintf (fun m -> Stdlib.Error (`Msg m)) fmt

let strip_line s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s

let parse_obj line =
  match Json.parse (strip_line line) with
  | Stdlib.Error m -> err "invalid JSON: %s" m
  | Ok (Json.Obj _ as j) -> Ok j
  | Ok _ -> err "expected a JSON object"

let req_field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> err "missing field %S" name

let int_field name j =
  let* v = req_field name j in
  match Json.to_int_opt v with
  | Some i -> Ok i
  | None -> err "field %S: expected an integer" name

let string_field name j =
  let* v = req_field name j in
  match Json.to_string_opt v with
  | Some s -> Ok s
  | None -> err "field %S: expected a string" name

let opt_float_field name j =
  match Json.member name j with
  | None -> Ok None
  | Some v -> (
      match Json.to_float_opt v with
      | Some f -> Ok (Some f)
      | None -> err "field %S: expected a number" name)

let int_array_field name j =
  let* v = req_field name j in
  match Json.to_list_opt v with
  | None -> err "field %S: expected a list" name
  | Some l ->
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | x :: tl -> (
            match Json.to_int_opt x with
            | Some i -> go (i :: acc) tl
            | None -> err "field %S: expected a list of integers" name)
      in
      go [] l

let solve_params_of_json j =
  let* table = string_field "table" j in
  let* kind =
    match Json.member "kind" j with
    | None -> Ok Compact.Bdd
    | Some v -> (
        match Option.bind (Json.to_string_opt v) kind_of_string with
        | Some k -> Ok k
        | None -> err "field \"kind\": expected \"bdd\" or \"zdd\"")
  in
  let* engine =
    match Json.member "engine" j with
    | None -> Ok Engine.Seq
    | Some v -> (
        match Json.to_string_opt v with
        | None -> err "field \"engine\": expected a string"
        | Some s -> (
            match Engine.of_string s with
            | Ok e -> Ok e
            | Stdlib.Error (`Msg m) -> err "field \"engine\": %s" m))
  in
  let* deadline_ms = opt_float_field "deadline_ms" j in
  Ok { table; kind; engine; deadline_ms }

let request_of_line line =
  let* j = parse_obj line in
  let* id = int_field "id" j in
  let* op = string_field "op" j in
  match op with
  | "ping" -> Ok { id; op = Ping }
  | "stats" -> Ok { id; op = Stats }
  | "shutdown" -> Ok { id; op = Shutdown }
  | "metrics" -> (
      match Json.member "format" j with
      | None -> Ok { id; op = Metrics Mjson }
      | Some v -> (
          match Json.to_string_opt v with
          | Some "json" -> Ok { id; op = Metrics Mjson }
          | Some "prometheus" -> Ok { id; op = Metrics Mprom }
          | _ ->
              err "field \"format\": expected \"json\" or \"prometheus\""))
  | "solve" ->
      let* p = solve_params_of_json j in
      Ok { id; op = Solve p }
  | "solve_many" -> (
      let* v = req_field "items" j in
      match Json.to_list_opt v with
      | None -> err "field \"items\": expected a list"
      | Some l ->
          let rec go k acc = function
            | [] -> Ok { id; op = Solve_many (List.rev acc) }
            | (Json.Obj _ as item) :: tl -> (
                match solve_params_of_json item with
                | Ok p -> go (k + 1) (p :: acc) tl
                | Stdlib.Error (`Msg m) -> err "item %d: %s" k m)
            | _ -> err "item %d: expected an object" k
          in
          go 0 [] l)
  | other -> err "unknown op %S" other

let reply_of_line line =
  let* j = parse_obj line in
  let* r_id = int_field "id" j in
  let* item =
    match Json.member "item" j with
    | None -> Ok None
    | Some v -> (
        match Json.to_int_opt v with
        | Some k -> Ok (Some k)
        | None -> err "field \"item\": expected an integer")
  in
  let* status = string_field "status" j in
  match status with
  | "pong" -> Ok { r_id; item; body = Pong }
  | "bye" -> Ok { r_id; item; body = Bye }
  | "cancelled" ->
      let* message = string_field "message" j in
      Ok { r_id; item; body = Cancelled message }
  | "error" ->
      let* code_s = string_field "code" j in
      let* message = string_field "message" j in
      let* retry_after_ms = opt_float_field "retry_after_ms" j in
      let code =
        Option.value (error_code_of_string code_s) ~default:Internal
      in
      Ok { r_id; item; body = Error { code; message; retry_after_ms } }
  | "ok" -> (
      match
        (Json.member "stats" j, Json.member "metrics" j, Json.member "prom" j)
      with
      | Some s, _, _ -> Ok { r_id; item; body = Ok_stats s }
      | None, Some m, _ -> Ok { r_id; item; body = Ok_metrics m }
      | None, None, Some p -> (
          match Json.to_string_opt p with
          | Some text -> Ok { r_id; item; body = Ok_prom text }
          | None -> err "field \"prom\": expected a string")
      | None, None, None ->
          let* digest = string_field "digest" j in
          let* mincost = int_field "mincost" j in
          let* size = int_field "size" j in
          let* order = int_array_field "order" j in
          let* widths = int_array_field "widths" j in
          let* cached =
            let* v = req_field "cached" j in
            match Json.to_bool_opt v with
            | Some b -> Ok b
            | None -> err "field \"cached\": expected a boolean"
          in
          let* queue_ms =
            let* v = opt_float_field "queue_ms" j in
            Ok (Option.value v ~default:0.)
          in
          let* solve_ms =
            let* v = opt_float_field "solve_ms" j in
            Ok (Option.value v ~default:0.)
          in
          Ok
            { r_id; item;
              body =
                Ok_solve
                  { digest; mincost; size; order; widths; cached; queue_ms;
                    solve_ms } })
  | other -> err "unknown status %S" other
