type t = Seq | Par of { domains : int }

let par ?(domains = 0) () = Par { domains }

let hard_cap = 64

let resolve_domains d =
  let d = if d <= 0 then Domain.recommended_domain_count () else d in
  max 1 (min hard_cap d)

let domain_count = function
  | Seq -> 1
  | Par { domains } -> resolve_domains domains

let to_string = function
  | Seq -> "seq"
  | Par { domains } when domains <= 0 -> "par"
  | Par { domains } -> Printf.sprintf "par:%d" domains

let of_string s =
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "seq" ] -> Ok Seq
  | [ "par" ] -> Ok (Par { domains = 0 })
  | [ "par"; d ] -> (
      match int_of_string_opt d with
      | Some d when d > 0 -> Ok (Par { domains = d })
      | Some _ | None ->
          Error (`Msg (Printf.sprintf "bad domain count in engine %S" s)))
  | _ -> Error (`Msg (Printf.sprintf "unknown engine %S (expected seq|par[:N])" s))

(* The workers of one sweep.  A job is a function of the participant
   index; publishing one bumps [generation] under [lock], and each
   worker runs it once, then reports back by decrementing [running].
   The caller (participant 0) runs its own share in between, so it
   never blocks while there is work left. *)
type pool = {
  par : bool;  (* Par: scratch metrics and "domain w" spans *)
  trace : Ovo_obs.Trace.t;
  size : int;  (* participants, the caller included *)
  names : string array;  (* span names, built once *)
  lock : Mutex.t;
  wake : Condition.t;  (* workers: a job was published, or [stop] *)
  finished : Condition.t;  (* caller: [running] reached 0 *)
  mutable job : int -> unit;
  mutable generation : int;
  mutable running : int;
  mutable stop : bool;
}

let size pool = pool.size

let no_job (_ : int) = ()

let rec work pool w seen =
  Mutex.lock pool.lock;
  while pool.generation = seen && not pool.stop do
    Condition.wait pool.wake pool.lock
  done;
  let generation = pool.generation and job = pool.job in
  Mutex.unlock pool.lock;
  (* [map] waits for every worker before it returns, so [stop] is only
     ever set between jobs: a new generation always comes first *)
  if generation <> seen then begin
    job w;
    Mutex.lock pool.lock;
    pool.running <- pool.running - 1;
    if pool.running = 0 then Condition.signal pool.finished;
    Mutex.unlock pool.lock;
    work pool w generation
  end

let with_pool ?(trace = Ovo_obs.Trace.null) t ~width f =
  let size =
    match t with Seq -> 1 | Par _ -> max 1 (min (domain_count t) width)
  in
  let pool =
    {
      par = (match t with Seq -> false | Par _ -> true);
      trace;
      size;
      names = Array.init size (Printf.sprintf "domain %d");
      lock = Mutex.create ();
      wake = Condition.create ();
      finished = Condition.create ();
      job = no_job;
      generation = 0;
      running = 0;
      stop = false;
    }
  in
  let workers = ref [] in
  let shutdown () =
    Mutex.lock pool.lock;
    pool.stop <- true;
    Condition.broadcast pool.wake;
    Mutex.unlock pool.lock;
    List.iter Domain.join !workers
  in
  (* spawning inside the protected body: a failed spawn still joins the
     workers already started *)
  Fun.protect ~finally:shutdown (fun () ->
      for w = 1 to size - 1 do
        workers := Domain.spawn (fun () -> work pool w 0) :: !workers
      done;
      f pool)

(* Run [share] on every participant and return once all have finished
   it.  [share] must not raise. *)
let run_job pool share =
  if pool.size > 1 then begin
    Mutex.lock pool.lock;
    pool.job <- share;
    pool.generation <- pool.generation + 1;
    pool.running <- pool.size - 1;
    Condition.broadcast pool.wake;
    Mutex.unlock pool.lock
  end;
  share 0;
  if pool.size > 1 then begin
    Mutex.lock pool.lock;
    while pool.running > 0 do
      Condition.wait pool.finished pool.lock
    done;
    pool.job <- no_job;
    Mutex.unlock pool.lock
  end

(* Chunks per participant: enough that a participant slowed by the OS or
   a collection hands its tail to the others, few enough that claiming
   stays rare next to the items themselves. *)
let chunks_per_participant = 8

let map ?(cancel = Cancel.never) pool ~metrics f len =
  (* the cooperative-cancellation granularity is one job: a fired token
     aborts before it is published, never mid-chunk *)
  Cancel.check cancel;
  if not pool.par then Array.init len (f metrics)
  else begin
    let chunk = max 1 (len / (pool.size * chunks_per_participant)) in
    let n_chunks = (len + chunk - 1) / chunk in
    (* each chunk's results land in their own slot, so the output is in
       index order whichever participant claimed the chunk *)
    let parts = Array.make n_chunks [||] in
    let next = Atomic.make 0 in
    let scratch = Array.init pool.size (fun _ -> Metrics.create ()) in
    let items = Array.make pool.size 0 in
    let failed = Array.make pool.size None in
    let rec claim w =
      let c = Atomic.fetch_and_add next 1 in
      if c < n_chunks then begin
        let lo = c * chunk in
        let hi = min len (lo + chunk) in
        parts.(c) <- Array.init (hi - lo) (fun i -> f scratch.(w) (lo + i));
        items.(w) <- items.(w) + (hi - lo);
        claim w
      end
    in
    let share w =
      try
        if not (Ovo_obs.Trace.enabled pool.trace) then claim w
        else
          (* recorded from the participant's own domain: its tid is that
             domain's id and its args are exactly its own contribution *)
          Ovo_obs.Trace.with_span pool.trace ~cat:"engine"
            ~args:(fun () ->
              ("worker", Ovo_obs.Json.Int w)
              :: ("items", Ovo_obs.Json.Int items.(w))
              :: Metrics.to_args (Metrics.snapshot scratch.(w)))
            pool.names.(w)
            (fun () -> claim w)
      with e ->
        failed.(w) <- Some (e, Printexc.get_raw_backtrace ());
        (* the others stop at their next claim *)
        Atomic.set next n_chunks
    in
    run_job pool share;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
      failed;
    Array.iter (fun m -> Metrics.merge_into ~into:metrics m) scratch;
    Array.concat (Array.to_list parts)
  end
