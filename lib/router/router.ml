module P = Ovo_serve.Protocol
module Client = Ovo_serve.Client
module Net = Ovo_serve.Net
module Prom_export = Ovo_serve.Prom_export
module Truthtable = Ovo_boolfun.Truthtable
module Trace = Ovo_obs.Trace
module Json = Ovo_obs.Json

type config = {
  listen : P.addr;
  shards : Shard_map.shard list;
  replicas : int;
  health_interval : float;
  connect_timeout : float;
  backoff_ms : float;
  idle_timeout : float option;
  prom : Prom_export.sink option;
}

let default_config ~listen ~shards =
  { listen; shards; replicas = 2; health_interval = 2.0; connect_timeout = 1.0;
    backoff_ms = 50.; idle_timeout = None; prom = None }

type t = {
  cfg : config;
  map : Shard_map.t;
  health : Health.t;
  stats : Rstats.t;
  net : Net.listener;
  mutable prom_export : Prom_export.t option;
}

let now = Trace.monotonic

(* The routing key: the same permutation-invariant canonical digest the
   shard keys its result cache on, so one equivalence class of tables
   always lands on one shard and that shard's cache concentrates.  An
   unparseable table still needs a deterministic home (some shard will
   produce the bad_request reply) — hash the raw string. *)
let key_of_table table =
  match Truthtable.of_string table with
  | exception Invalid_argument _ -> table
  | exception Failure _ -> table
  | tt ->
      let canon, _perm = Truthtable.canonicalize tt in
      Truthtable.digest_of_canonical canon

let shard_down_body tried =
  P.Error
    { code = P.Shard_down;
      message =
        (match tried with
        | [] -> "no live shard owns this key"
        | l ->
            Printf.sprintf "every owning replica is unreachable (tried %s)"
              (String.concat ", " l));
      retry_after_ms = None }

(* ---------- per-connection shard legs ---------- *)

(* Each client connection gets its own cache of shard connections:
   no cross-connection locking, and a shard leg is never shared by two
   threads at once (scatter rounds join before the next round runs). *)
type ctx = { t : t; clients : (string, Client.t) Hashtbl.t }

let client_for ctx (s : Shard_map.shard) =
  match Hashtbl.find_opt ctx.clients s.name with
  | Some c -> Ok c
  | None -> (
      match Client.connect ~timeout:ctx.t.cfg.connect_timeout s.addr with
      | c ->
          Hashtbl.replace ctx.clients s.name c;
          Ok c
      | exception Unix.Unix_error (e, _, _) ->
          Error (Unix.error_message e))

let drop_client ctx name =
  match Hashtbl.find_opt ctx.clients name with
  | None -> ()
  | Some c ->
      Client.close c;
      Hashtbl.remove ctx.clients name

let note_shard_ok ctx name =
  Health.mark_up ctx.t.health name;
  Rstats.set_shard_up ctx.t.stats ~shard:name true

let note_shard_dead ctx name =
  drop_client ctx name;
  Health.mark_down ctx.t.health name;
  Rstats.set_shard_up ctx.t.stats ~shard:name false

let live_owners ?exclude ctx key =
  let excluded = Option.value exclude ~default:[] in
  Shard_map.owners ~replicas:ctx.t.cfg.replicas ctx.t.map
    ~live:(fun name ->
      (not (List.mem name excluded)) && Health.is_up ctx.t.health name)
    key

(* Before failover attempt [attempt] > 0: count the retry and back off
   [backoff_ms * 2^(attempt-1)], capped at 2 s. *)
let retry_pause ctx attempt =
  if attempt > 0 then begin
    Rstats.record_retry ctx.t.stats;
    Thread.delay
      (Float.min 2.
         (ctx.t.cfg.backoff_ms *. (2. ** float_of_int (attempt - 1)) /. 1000.))
  end

(* ---------- single solve: walk the replica list ---------- *)

let proxy_solve ctx id (p : P.solve_params) =
  let key = key_of_table p.table in
  let rec go attempt tried =
    match live_owners ~exclude:tried ctx key with
    | [] ->
        Rstats.record_shard_down ctx.t.stats;
        shard_down_body (List.rev tried)
    | shard :: _ -> (
        retry_pause ctx attempt;
        let started = now () in
        let outcome =
          match client_for ctx shard with
          | Error m -> Error m
          | Ok c -> (
              match Client.roundtrip c { P.id; op = P.Solve p } with
              | Ok r -> Ok r.P.body
              | Error (`Msg m) -> Error m)
        in
        match outcome with
        | Ok body ->
            note_shard_ok ctx shard.name;
            Rstats.record_proxy ctx.t.stats ~shard:shard.name
              ~ms:((now () -. started) *. 1000.);
            body
        | Error _ ->
            (* a dead shard mid-solve is safe to retry elsewhere: solves
               are pure, so re-dispatch can only repeat work, never
               corrupt state *)
            note_shard_dead ctx shard.name;
            go (attempt + 1) (shard.name :: tried))
  in
  go 0 []

(* ---------- solve_many: scatter / gather ---------- *)

(* One scatter round: group the still-unanswered items by their first
   live owner, send one [Solve_many] sub-batch per shard in parallel
   threads, fill [results] at the items' original indices as replies
   stream back, and return what is left (items whose shard died before
   answering them) for the next round.  Rounds join every thread before
   the next begins, so a shard leg is never used by two threads at
   once. *)
let scatter_round ctx id ~results ~exclude items =
  let groups = Hashtbl.create 8 in
  let orphans = ref [] in
  List.iter
    (fun ((_, _, key) as it) ->
      match live_owners ~exclude ctx key with
      | [] -> orphans := it :: !orphans
      | shard :: _ ->
          Hashtbl.replace groups shard.Shard_map.name
            (shard,
             it
             ::
             (match Hashtbl.find_opt groups shard.Shard_map.name with
             | Some (_, l) -> l
             | None -> [])))
    items;
  let failed = ref [] in
  let failed_m = Mutex.create () in
  let run_group (shard, rev_items) =
    let sub = Array.of_list (List.rev rev_items) in
    let params = Array.to_list (Array.map (fun (_, p, _) -> p) sub) in
    let fail_from j =
      Mutex.lock failed_m;
      for k = Array.length sub - 1 downto j do
        failed := (shard.Shard_map.name, sub.(k)) :: !failed
      done;
      Mutex.unlock failed_m
    in
    let started = now () in
    match client_for ctx shard with
    | Error _ ->
        note_shard_dead ctx shard.Shard_map.name;
        fail_from 0
    | Ok c -> (
        match Client.send c { P.id; op = P.Solve_many params } with
        | exception Sys_error _ ->
            note_shard_dead ctx shard.Shard_map.name;
            fail_from 0
        | () ->
            (* replies come back in sub-batch item order *)
            let rec read k =
              if k >= Array.length sub then begin
                note_shard_ok ctx shard.Shard_map.name;
                Rstats.record_proxy ctx.t.stats ~shard:shard.Shard_map.name
                  ~ms:((now () -. started) *. 1000.)
              end
              else
                match Client.recv c with
                | Ok { P.item = Some j; body; _ }
                  when j >= 0 && j < Array.length sub ->
                    let orig, _, _ = sub.(j) in
                    results.(orig) <- Some body;
                    read (k + 1)
                | Ok _ | Error (`Msg _) ->
                    (* a reply we cannot attribute, or a dead leg:
                       everything not yet answered fails over *)
                    note_shard_dead ctx shard.Shard_map.name;
                    Mutex.lock failed_m;
                    Array.iter
                      (fun ((orig, _, _) as it) ->
                        if results.(orig) = None then
                          failed := (shard.Shard_map.name, it) :: !failed)
                      sub;
                    Mutex.unlock failed_m
            in
            read 0)
  in
  let threads =
    Hashtbl.fold
      (fun _ group acc -> Thread.create run_group group :: acc)
      groups []
  in
  List.iter Thread.join threads;
  (!orphans, !failed)

let proxy_solve_many ctx id (items : P.solve_params list) =
  let n = List.length items in
  Rstats.record_items ctx.t.stats n;
  let results = Array.make n None in
  let indexed =
    List.mapi
      (fun i (p : P.solve_params) -> (i, p, key_of_table p.table))
      items
  in
  let max_rounds = List.length ctx.t.cfg.shards in
  let rec rounds attempt exclude todo =
    if todo = [] then ()
    else if attempt >= max_rounds then ()  (* leftovers become shard_down *)
    else begin
      retry_pause ctx attempt;
      let orphans, failed =
        scatter_round ctx id ~results ~exclude todo
      in
      ignore orphans;  (* no live owner now: retrying cannot help them *)
      let dead =
        List.sort_uniq compare (List.map fst failed) @ exclude
      in
      rounds (attempt + 1) dead (List.map snd failed)
    end
  in
  rounds 0 [] indexed;
  let down = shard_down_body [] in
  Array.mapi
    (fun _k r ->
      match r with
      | Some body -> body
      | None ->
          Rstats.record_shard_down ctx.t.stats;
          down)
    results

(* ---------- request loop ---------- *)

let shutdown t = Net.shutdown t.net

let stats_json t =
  Rstats.stats_json t.stats ~health:(Health.snapshot t.health)

let prom_text t = Rstats.prom t.stats

let handle_request ctx send ({ id; op } : P.request) =
  let t = ctx.t in
  Rstats.record_request t.stats ~endpoint:(P.op_name op);
  let write ?item body = send (P.reply ?item id body) in
  (match op with
  | P.Ping -> write P.Pong
  | P.Stats -> write (P.Ok_stats (stats_json t))
  | P.Metrics P.Mjson -> write (P.Ok_metrics (stats_json t))
  | P.Metrics P.Mprom -> write (P.Ok_prom (prom_text t))
  | P.Shutdown -> write P.Bye
  | P.Solve p -> write (proxy_solve ctx id p)
  | P.Solve_many [] ->
      write
        (P.Error
           { code = P.Bad_request; message = "solve_many: empty items";
             retry_after_ms = None })
  | P.Solve_many items ->
      Array.iteri (fun k body -> write ~item:k body)
        (proxy_solve_many ctx id items));
  if op = P.Shutdown then shutdown t

let conn_loop t fd =
  let ctx = { t; clients = Hashtbl.create 4 } in
  Fun.protect
    ~finally:(fun () -> Hashtbl.iter (fun _ c -> Client.close c) ctx.clients)
    (fun () -> Net.serve_requests t.net fd (handle_request ctx))

(* ---------- lifecycle ---------- *)

let start cfg =
  let cfg = { cfg with replicas = max 1 cfg.replicas } in
  let map = Shard_map.make cfg.shards in
  let names = List.map (fun (s : Shard_map.shard) -> s.name) cfg.shards in
  let stats = Rstats.create ~shards:names () in
  (* listen first: it ignores SIGPIPE before the health probes write *)
  let net = Net.listen ?idle_timeout:cfg.idle_timeout cfg.listen in
  let health =
    Health.start ~interval:cfg.health_interval ~timeout:cfg.connect_timeout
      ~on_change:(fun name up -> Rstats.set_shard_up stats ~shard:name up)
      (List.map (fun (s : Shard_map.shard) -> (s.name, s.addr)) cfg.shards)
  in
  let t = { cfg; map; health; stats; net; prom_export = None } in
  Net.accept net (conn_loop t);
  t.prom_export <-
    Some
      (Prom_export.start ~sink:cfg.prom
         ~render:(fun () -> prom_text t)
         ~refresh:(fun () -> Rstats.refresh t.stats)
         ());
  t

let wait t =
  Net.wait t.net ~drain:(fun () ->
      Health.stop t.health;
      Option.iter Prom_export.stop_and_flush t.prom_export;
      Printf.eprintf "[ovo-router] shutdown: final stats: %s\n%!"
        (Json.to_string (stats_json t)))

let run cfg =
  let t = start cfg in
  Net.stop_on_signals t.net;
  Printf.eprintf
    "[ovo-router] routing %s over %d shard%s (rendezvous, %d replica%s)\n%!"
    (P.addr_to_string t.cfg.listen)
    (List.length t.cfg.shards)
    (if List.length t.cfg.shards = 1 then "" else "s")
    t.cfg.replicas
    (if t.cfg.replicas = 1 then "" else "s");
  wait t
