(* The campaign daemon behind `mbpta serve`.

   Thread layout (systhreads; the domain pool underneath is untouched):

   - one accept thread: selects on the listening socket so it can notice
     a shutdown request, admits at most [max_clients] concurrent
     connections (one thread each), rejects the rest with a typed
     response instead of letting them queue invisibly;
   - one dispatcher thread: pulls cold campaigns off a bounded queue and
     runs them — one at a time, so the domain pool is never
     oversubscribed — delivering the result to every waiter of the job;
   - one monitor thread: watches the process-wide [Shutdown] flag and
     drives the drain (stop accepting, reject the queue, join, unlink).

   Deduplication: requests are keyed by their store key (a pure function
   of the measured configuration).  A request whose key matches an
   in-flight job joins that job's waiter list instead of queueing a
   second computation; every waiter gets the same report bytes — bit-
   identical whether served cold, warm or coalesced, because the report
   is a pure function of the spec and the store replays recorded chunks
   exactly. *)

module M = Repro_mbpta
module Sp = Serve_protocol
module Json = M.Trace.Json

type config = {
  socket_path : string;
  store_dir : string;
  jobs : int;  (* domain pool width for cold campaigns *)
  max_queue : int;  (* cold campaigns admitted beyond the one in flight *)
  max_clients : int;  (* concurrent connections *)
  trace : M.Trace.t option;  (* daemon-lifetime trace; process-total counters *)
}

type waiter = {
  w_mutex : Mutex.t;
  w_cond : Condition.t;
  w_queue : Sp.response Queue.t;
  w_events : bool;  (* subscribed to streamed phase events *)
}

type job = {
  j_key : string;
  j_spec : Sp.spec;
  j_origin : waiter;  (* first requester: served cold/warm, not coalesced *)
  mutable j_waiters : waiter list;
}

(* The analysis memo: a warm query is a pure function of the record's
   bytes and the analysis options, so each (record, options) pair is
   fitted once and every later query on it is answered from the fitted
   tail model.  An entry holds only what answers read — never the sample,
   its ECDF or the full i.i.d. result — and is pinned to the record's
   identity by a stat stamp, the integrity model of the store's [.idx]
   sidecar (DESIGN.md section 14.7). *)

type stamp = { dev : int; ino : int; size : int; mtime : float }

type fitted =
  | Fitted of {
      model : Repro_evt.Pwcet.tail_model;
      block_size : int;
      accepted : bool;
      lb_p : float;
      ks_p : float;
    }
  | Analysis_failed of string

type memo_entry = { stamp : stamp; fitted : fitted; mutable used : int }

type t = {
  cfg : config;
  store : M.Store.t;
  totals : M.Trace.Counters.t;
  on_job_start : (string -> unit) option;  (* test hook, fired before compute *)
  mutex : Mutex.t;
  cond : Condition.t;  (* wakes the dispatcher *)
  stopped_cond : Condition.t;
  jobs_tbl : (string, job) Hashtbl.t;  (* key -> in-flight or queued job *)
  queue : job Queue.t;
  listen_fd : Unix.file_descr;
  mutable stopping : bool;
  mutable stopped : bool;
  mutable client_count : int;
  conn_threads : (int, Thread.t) Hashtbl.t;  (* Thread.id -> handler *)
  memo : (string, memo_entry) Hashtbl.t;  (* store key + analysis id -> fit *)
  memo_mutex : Mutex.t;
  mutable memo_clock : int;  (* LRU recency *)
  mutable accept_thread : Thread.t option;
  mutable dispatch_thread : Thread.t option;
  mutable monitor_thread : Thread.t option;
}

(* ------------------------------------------------------------------ *)
(* Waiters *)

let new_waiter ~events =
  { w_mutex = Mutex.create (); w_cond = Condition.create (); w_queue = Queue.create (); w_events = events }

let waiter_push w r =
  Mutex.lock w.w_mutex;
  Queue.push r w.w_queue;
  Condition.signal w.w_cond;
  Mutex.unlock w.w_mutex

(* Stream responses to the connection until the final (non-event) one.
   A vanished client must not wedge the job side, so write failures are
   swallowed and draining continues to the final response. *)
let rec drain_waiter w fd =
  Mutex.lock w.w_mutex;
  while Queue.is_empty w.w_queue do
    Condition.wait w.w_cond w.w_mutex
  done;
  let r = Queue.pop w.w_queue in
  Mutex.unlock w.w_mutex;
  (try Serve_io.write_line fd (Sp.response_to_line r) with
  | Unix.Unix_error _ | Sys_error _ -> ());
  match r with Sp.Event _ -> drain_waiter w fd | _ -> ()

(* ------------------------------------------------------------------ *)
(* Campaigns *)

type job_outcome =
  | Done of { report : string; counters : (string * int) list; warm : bool }
  | Stopped
  | Failed_job of string

let run_campaign t job =
  let spec = job.j_spec in
  let counters = M.Trace.Counters.create ~parent:t.totals () in
  let on_event e =
    Mutex.lock t.mutex;
    let subscribed = List.filter (fun w -> w.w_events) job.j_waiters in
    Mutex.unlock t.mutex;
    List.iter (fun w -> waiter_push w (Sp.Event e)) subscribed
  in
  let mtrace = M.Trace.create_mem ~level:M.Trace.Summary ~counters ~on_event () in
  let config = Sp.store_config spec in
  let resilient = Sp.resilient spec in
  match
    M.Store.open_session ~resume:true t.store ~key:job.j_key ~config ~runs:spec.runs
      ~resilient
  with
  | Error e -> Failed_job e
  | Ok session -> (
      match
        Fun.protect
          ~finally:(fun () -> M.Store.close session)
          (fun () ->
            match Sp.campaign_input ~counters spec with
            | `Plain input ->
                M.Campaign.run ~jobs:t.cfg.jobs ~trace:mtrace ~store:session input
            | `Resilient input ->
                M.Campaign.run_resilient ~jobs:t.cfg.jobs ~trace:mtrace ~store:session
                  input)
      with
      | Ok c ->
          let snapshot = M.Trace.Counters.snapshot counters in
          let warm = List.assoc_opt "cache.runs_simulated" snapshot = Some 0 in
          Done { report = M.Campaign.render c; counters = snapshot; warm }
      | Error f -> Failed_job (Format.asprintf "campaign failed: %a" M.Protocol.pp_failure f)
      | exception M.Shutdown.Interrupted _ -> Stopped
      | exception e -> Failed_job (Printexc.to_string e))

let shutting_down_response =
  Sp.Rejected
    {
      reason = Sp.reason_shutting_down;
      detail =
        "daemon is draining; in-flight work was checkpointed at its last chunk \
         barrier and resumes warm on restart";
    }

let deliver_outcome t job outcome =
  Mutex.lock t.mutex;
  Hashtbl.remove t.jobs_tbl job.j_key;
  let waiters = job.j_waiters in
  Mutex.unlock t.mutex;
  (match outcome with
  | Done { warm; _ } ->
      M.Trace.Counters.incr t.totals
        (if warm then "serve.campaigns_warm" else "serve.campaigns_cold");
      (match t.cfg.trace with
      | Some tr ->
          M.Trace.emit tr
            (M.Trace.Note
               (Printf.sprintf "serve: %s campaign %s (%d waiter%s)"
                  (if warm then "warm" else "cold")
                  job.j_key (List.length waiters)
                  (if List.length waiters = 1 then "" else "s")))
      | None -> ())
  | Stopped -> ()
  | Failed_job _ -> M.Trace.Counters.incr t.totals "serve.campaigns_failed");
  List.iter
    (fun w ->
      let final =
        match outcome with
        | Done { report; counters; warm } ->
            let served =
              if w != job.j_origin then Sp.Coalesced else if warm then Sp.Warm else Sp.Cold
            in
            Sp.Report { key = job.j_key; served; report; counters }
        | Stopped -> shutting_down_response
        | Failed_job msg -> Sp.Failed msg
      in
      waiter_push w final)
    waiters

(* ------------------------------------------------------------------ *)
(* Dispatcher *)

let rec dispatch_loop t =
  Mutex.lock t.mutex;
  while (not t.stopping) && Queue.is_empty t.queue do
    Condition.wait t.cond t.mutex
  done;
  if t.stopping then begin
    (* Drain: every queued-but-unstarted job gets the typed rejection. *)
    let queued = Queue.fold (fun acc j -> j :: acc) [] t.queue in
    Queue.clear t.queue;
    List.iter (fun j -> Hashtbl.remove t.jobs_tbl j.j_key) queued;
    Mutex.unlock t.mutex;
    List.iter
      (fun j -> List.iter (fun w -> waiter_push w shutting_down_response) j.j_waiters)
      queued
  end
  else begin
    let job = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    (match t.on_job_start with Some f -> f job.j_key | None -> ());
    let outcome = run_campaign t job in
    deliver_outcome t job outcome;
    dispatch_loop t
  end

(* ------------------------------------------------------------------ *)
(* Warm-only queries *)

let phase_rand = "collect_rand"

let memo_capacity = 256

(* A record rewritten within one timestamp tick of its last write can
   keep its stamp, so a fit is memoized only if the record's mtime is
   already older than a tick when the fit starts: any later write then
   gets a strictly larger mtime.  Linux stamps files from a clock that
   ticks every 1-10 ms; an mtime in whole seconds suggests a filesystem
   that stamps whole seconds (or two, as FAT does). *)
let racy_window_s mtime = if Float.is_integer mtime then 2. else 0.1

let stamp_of file =
  match Unix.stat file with
  | { Unix.st_dev; st_ino; st_size; st_mtime; _ } ->
      Some { dev = st_dev; ino = st_ino; size = st_size; mtime = st_mtime }
  | exception Unix.Unix_error _ -> None

let memo_find t mkey stamp =
  Mutex.lock t.memo_mutex;
  let found =
    match Hashtbl.find_opt t.memo mkey with
    | Some e when e.stamp = stamp ->
        t.memo_clock <- t.memo_clock + 1;
        e.used <- t.memo_clock;
        Some e.fitted
    | _ -> None
  in
  Mutex.unlock t.memo_mutex;
  found

let memo_add t mkey stamp fitted =
  Mutex.lock t.memo_mutex;
  if (not (Hashtbl.mem t.memo mkey)) && Hashtbl.length t.memo >= memo_capacity then begin
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with Some (_, used) when used <= e.used -> acc | _ -> Some (k, e.used))
        t.memo None
    in
    Option.iter (fun (k, _) -> Hashtbl.remove t.memo k) victim
  end;
  t.memo_clock <- t.memo_clock + 1;
  Hashtbl.replace t.memo mkey { stamp; fitted; used = t.memo_clock };
  Mutex.unlock t.memo_mutex

let fitted_of_analysis = function
  | Error f -> Analysis_failed (Format.asprintf "analysis failed: %a" M.Protocol.pp_failure f)
  | Ok analysis ->
      let curve = analysis.M.Protocol.curve and iid = analysis.M.Protocol.iid in
      Fitted
        {
          model = Repro_evt.Pwcet.model curve;
          block_size = Repro_evt.Pwcet.block_size curve;
          accepted = iid.M.Iid.accepted;
          lb_p = iid.M.Iid.ljung_box.Repro_stats.Ljung_box.p_value;
          ks_p = iid.M.Iid.kolmogorov_smirnov.Repro_stats.Ks.p_value;
        }

(* Read the complete record and fit it: [Error] is the miss response for
   a record that cannot answer. *)
let fit_record t (spec : Sp.spec) ~key mtrace =
  match
    M.Store.open_session ~resume:true t.store ~key ~config:(Sp.store_config spec)
      ~runs:spec.runs ~resilient:false
  with
  | Error e -> Error (Sp.Miss { key; reason = e })
  | Ok session ->
      Fun.protect
        ~finally:(fun () -> M.Store.close session)
        (fun () ->
          if not (M.Store.complete session ~phase:phase_rand) then
            Error
              (Sp.Miss
                 {
                   key;
                   reason =
                     Printf.sprintf "record holds %d of %d runs; send a campaign request"
                       (M.Store.cached_runs session ~phase:phase_rand)
                       spec.runs;
                 })
          else begin
            (* Every chunk is cached, so the collector only replays the
               record — the [cache.runs_simulated = 0] counter in the
               response is the proof that nothing was recomputed. *)
            let sample =
              M.Store.collect ~trace:mtrace ~jobs:1 session ~phase:phase_rand spec.runs
                (fun _ -> invalid_arg "serve: warm query must not simulate")
            in
            Ok
              (fitted_of_analysis
                 (M.Protocol.analyze ~options:(Sp.options spec) ~jobs:t.cfg.jobs
                    ~trace:mtrace sample))
          end)

let answer_query t (spec : Sp.spec) query =
  let key = Sp.store_key spec in
  if Sp.resilient spec then
    Sp.Miss
      {
        key;
        reason =
          "warm queries answer fault-free records only; send a campaign request for \
           resilient specs";
      }
  else begin
    let counters = M.Trace.Counters.create ~parent:t.totals () in
    let mkey = key ^ " " ^ Sp.analysis_id spec in
    let file = Filename.concat (M.Store.dir t.store) (key ^ ".jsonl") in
    let stamp = stamp_of file in
    let fitted =
      match Option.bind stamp (memo_find t mkey) with
      | Some fitted ->
          (* A hit reads nothing from the store, so nothing was simulated. *)
          M.Trace.Counters.incr counters "serve.analysis_memo_hits";
          M.Trace.Counters.add counters "cache.runs_simulated" 0;
          Ok fitted
      | None ->
          M.Trace.Counters.incr counters "serve.analysis_memo_misses";
          let aged =
            match stamp with
            | Some s -> Unix.gettimeofday () -. s.mtime >= racy_window_s s.mtime
            | None -> false
          in
          let mtrace = M.Trace.create_mem ~level:M.Trace.Summary ~counters () in
          let fitted = fit_record t spec ~key mtrace in
          (* Store the fit only if the record it read is the one stamped
             before the read. *)
          (match (fitted, stamp) with
          | Ok fitted, Some s when aged && stamp_of file = stamp -> memo_add t mkey s fitted
          | _ -> ());
          fitted
    in
    match fitted with
    | Error miss -> miss
    | Ok (Analysis_failed msg) -> Sp.Failed msg
    | Ok (Fitted f) ->
        let value =
          match query with
          | Sp.Pwcet p ->
              Json.Float
                (Repro_evt.Pwcet.estimate_of_model ~model:f.model ~block_size:f.block_size
                   ~cutoff_probability:p)
          | Sp.Iid_verdict ->
              Json.Obj
                [
                  ("accepted", Json.Bool f.accepted);
                  ("lb_p", Json.Float f.lb_p);
                  ("ks_p", Json.Float f.ks_p);
                ]
        in
        M.Trace.Counters.incr t.totals "serve.queries_answered";
        Sp.Answer { key; query; value; counters = M.Trace.Counters.snapshot counters }
  end

(* ------------------------------------------------------------------ *)
(* Connection handling *)

let status_response t =
  Mutex.lock t.mutex;
  let queue_depth = Queue.length t.queue in
  let in_flight = Hashtbl.length t.jobs_tbl - queue_depth in
  let clients = t.client_count in
  Mutex.unlock t.mutex;
  Sp.Status_report
    {
      queue_depth;
      in_flight;
      clients;
      max_queue = t.cfg.max_queue;
      max_clients = t.cfg.max_clients;
      counters = M.Trace.Counters.snapshot t.totals;
    }

let handle_campaign t fd (spec : Sp.spec) ~events =
  let key = Sp.store_key spec in
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    Serve_io.write_line fd (Sp.response_to_line shutting_down_response)
  end
  else
    match Hashtbl.find_opt t.jobs_tbl key with
    | Some job ->
        (* Coalesce: same key, one computation, same bytes for everyone. *)
        let w = new_waiter ~events in
        job.j_waiters <- w :: job.j_waiters;
        Mutex.unlock t.mutex;
        M.Trace.Counters.incr t.totals "serve.dedup_coalesced";
        drain_waiter w fd
    | None ->
        (* [jobs_tbl] holds queued + in-flight jobs, so the bound reads:
           one may compute while [max_queue] wait — anything beyond that
           is overload, answered now rather than queued invisibly. *)
        if Hashtbl.length t.jobs_tbl > t.cfg.max_queue then begin
          Mutex.unlock t.mutex;
          M.Trace.Counters.incr t.totals "serve.rejected_overload";
          Serve_io.write_line fd
            (Sp.response_to_line
               (Sp.Rejected
                  {
                    reason = Sp.reason_overloaded;
                    detail =
                      Printf.sprintf
                        "campaign queue is full (%d queued, max %d); retry later"
                        t.cfg.max_queue t.cfg.max_queue;
                  }))
        end
        else begin
          let w = new_waiter ~events in
          let job = { j_key = key; j_spec = spec; j_origin = w; j_waiters = [ w ] } in
          Hashtbl.replace t.jobs_tbl key job;
          Queue.push job t.queue;
          Condition.signal t.cond;
          Mutex.unlock t.mutex;
          drain_waiter w fd
        end

let handle_conn t fd =
  let reader = Serve_io.reader fd in
  match Serve_io.read_line reader with
  | Error e -> (
      try Serve_io.write_line fd (Sp.response_to_line (Sp.Failed ("bad request: " ^ e)))
      with Unix.Unix_error _ -> ())
  | Ok line -> (
      M.Trace.Counters.incr t.totals "serve.requests";
      match Sp.request_of_line line with
      | Error e ->
          Serve_io.write_line fd (Sp.response_to_line (Sp.Failed ("bad request: " ^ e)))
      | Ok (Sp.Campaign { spec; events }) -> handle_campaign t fd spec ~events
      | Ok (Sp.Query { spec; query }) ->
          Serve_io.write_line fd (Sp.response_to_line (answer_query t spec query))
      | Ok Sp.Status -> Serve_io.write_line fd (Sp.response_to_line (status_response t))
      | Ok Sp.Shutdown ->
          Serve_io.write_line fd (Sp.response_to_line Sp.Shutdown_ack);
          M.Shutdown.request ~reason:"client shutdown request" ())

let conn_thread t fd =
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.lock t.mutex;
      t.client_count <- t.client_count - 1;
      Hashtbl.remove t.conn_threads (Thread.id (Thread.self ()));
      Mutex.unlock t.mutex)
    (fun () ->
      try handle_conn t fd with
      | Unix.Unix_error _ | Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Accept loop *)

let handle_accept t fd =
  (* A client that connects and then stalls must not pin a handler thread
     forever: bound both directions. *)
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 30.
   with Unix.Unix_error _ -> ());
  Mutex.lock t.mutex;
  if t.client_count >= t.cfg.max_clients then begin
    Mutex.unlock t.mutex;
    M.Trace.Counters.incr t.totals "serve.rejected_clients";
    (try
       Serve_io.write_line fd
         (Sp.response_to_line
            (Sp.Rejected
               {
                 reason = Sp.reason_too_many_clients;
                 detail =
                   Printf.sprintf "all %d client slots are busy; retry later"
                     t.cfg.max_clients;
               }))
     with Unix.Unix_error _ | Sys_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  end
  else begin
    t.client_count <- t.client_count + 1;
    let th = Thread.create (fun () -> conn_thread t fd) () in
    Hashtbl.replace t.conn_threads (Thread.id th) th;
    Mutex.unlock t.mutex
  end

let accept_loop t =
  let rec loop () =
    let stop =
      Mutex.lock t.mutex;
      let s = t.stopping in
      Mutex.unlock t.mutex;
      s
    in
    if not stop then begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ -> handle_accept t fd
          | exception
              Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK | ECONNABORTED), _, _) ->
              ())
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  try Sys.remove t.cfg.socket_path with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Monitor: drive the drain once shutdown is requested *)

let monitor_loop t =
  while not (M.Shutdown.requested ()) do
    Thread.delay 0.05
  done;
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  (match t.dispatch_thread with Some th -> Thread.join th | None -> ());
  (* Connection handlers all terminate: queued and in-flight waiters got
     their final response when the dispatcher drained, fresh connections
     are rejected, and socket timeouts bound stalled clients. *)
  let rec join_conns () =
    Mutex.lock t.mutex;
    let remaining = Hashtbl.fold (fun _ th acc -> th :: acc) t.conn_threads [] in
    Mutex.unlock t.mutex;
    match remaining with
    | [] -> ()
    | ths ->
        List.iter Thread.join ths;
        join_conns ()
  in
  join_conns ();
  (match t.cfg.trace with Some tr -> M.Trace.flush tr | None -> ());
  Mutex.lock t.mutex;
  t.stopped <- true;
  Condition.broadcast t.stopped_cond;
  Mutex.unlock t.mutex

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let bind_socket path =
  let probe_stale () =
    (* A socket file can be a live daemon or the residue of a crash; a
       probe connection tells them apart. *)
    let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect probe (Unix.ADDR_UNIX path) with
    | () ->
        (try Unix.close probe with Unix.Unix_error _ -> ());
        Error (Printf.sprintf "serve: %s: a daemon is already listening there" path)
    | exception Unix.Unix_error (ECONNREFUSED, _, _) ->
        (try Unix.close probe with Unix.Unix_error _ -> ());
        (try Sys.remove path with Sys_error _ -> ());
        Ok ()
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close probe with Unix.Unix_error _ -> ());
        Error (Printf.sprintf "serve: cannot probe %s: %s" path (Unix.error_message e))
  in
  let cleared =
    match Unix.stat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> probe_stale ()
    | _ -> Error (Printf.sprintf "serve: %s exists and is not a socket" path)
    | exception Unix.Unix_error (ENOENT, _, _) -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "serve: cannot stat %s: %s" path (Unix.error_message e))
  in
  match cleared with
  | Error _ as e -> e
  | Ok () -> (
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      try
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 64;
        Ok fd
      with Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Printf.sprintf "serve: cannot bind %s: %s" path (Unix.error_message e)))

let start ?on_job_start cfg =
  if cfg.jobs < 1 then invalid_arg "Server.start: jobs must be >= 1";
  if cfg.max_queue < 0 then invalid_arg "Server.start: max_queue must be >= 0";
  if cfg.max_clients < 1 then invalid_arg "Server.start: max_clients must be >= 1";
  (* A client that disappears mid-write must not kill the daemon. *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  match M.Store.open_root ~dir:cfg.store_dir with
  | exception Sys_error e -> Error e
  | store -> (
      match bind_socket cfg.socket_path with
      | Error _ as e -> e
      | Ok listen_fd ->
          let totals =
            match cfg.trace with
            | Some tr -> M.Trace.counters tr
            | None -> M.Trace.Counters.create ()
          in
          let t =
            {
              cfg;
              store;
              totals;
              on_job_start;
              mutex = Mutex.create ();
              cond = Condition.create ();
              stopped_cond = Condition.create ();
              jobs_tbl = Hashtbl.create 16;
              queue = Queue.create ();
              listen_fd;
              stopping = false;
              stopped = false;
              client_count = 0;
              conn_threads = Hashtbl.create 16;
              memo = Hashtbl.create 16;
              memo_mutex = Mutex.create ();
              memo_clock = 0;
              accept_thread = None;
              dispatch_thread = None;
              monitor_thread = None;
            }
          in
          t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
          t.dispatch_thread <- Some (Thread.create (fun () -> dispatch_loop t) ());
          t.monitor_thread <- Some (Thread.create (fun () -> monitor_loop t) ());
          Ok t)

let wait t =
  Mutex.lock t.mutex;
  while not t.stopped do
    Condition.wait t.stopped_cond t.mutex
  done;
  Mutex.unlock t.mutex;
  match t.monitor_thread with Some th -> Thread.join th | None -> ()

let stop t =
  M.Shutdown.request ~reason:"server stop" ();
  wait t;
  (* Leave the process reusable (tests start several servers in turn). *)
  M.Shutdown.reset ()

let counters t = t.totals
