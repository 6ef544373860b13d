(* The [mbpta serve] daemon: admission control, dedup/coalescing,
   warm-vs-cold classification, warm-only queries, graceful shutdown —
   and the bit-identity contract across all serving paths.

   Servers run in-process (threads over a Unix socket in a temp dir);
   clients talk to them through the real wire protocol, so every byte
   crosses the same boundary the CLI uses. *)

module M = Repro_mbpta
module T = Repro_tvca
module P = Repro_platform
module S = Repro_serve
module Sp = S.Serve_protocol

let temp_dir () =
  let f = Filename.temp_file "serve_test" "" in
  Sys.remove f;
  Unix.mkdir f 0o755;
  f

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_server ?(jobs = 2) ?(max_queue = 4) ?(max_clients = 16) ?on_job_start f =
  let dir = temp_dir () in
  let sock = Filename.concat dir "d.sock" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg =
    {
      S.Server.socket_path = sock;
      store_dir = Filename.concat dir "store";
      jobs;
      max_queue;
      max_clients;
      trace = None;
    }
  in
  match S.Server.start ?on_job_start cfg with
  | Error e -> Alcotest.failf "server start: %s" e
  | Ok srv -> Fun.protect ~finally:(fun () -> S.Server.stop srv) (fun () -> f srv sock)

let request ?on_event sock req =
  match S.Client.request ?on_event ~socket_path:sock req with
  | Ok r -> r
  | Error e -> Alcotest.failf "client request: %s" e

(* Small but real campaign — distinct seeds per test keep store keys from
   colliding even though every test gets its own directory anyway. *)
let spec ~seed = { Sp.default_spec with runs = 120; seed; frames = 2; no_gates = true }

(* The sequential in-process reference: same measurement and analysis
   glue as the daemon (and the CLI), no store, [jobs = 1].  The daemon's
   reports must match this byte for byte on every serving path. *)
let direct_render (spec : Sp.spec) =
  let experiment config =
    T.Experiment.create ~frames:spec.frames ~config ~base_seed:spec.seed ()
  in
  let det = experiment P.Config.deterministic in
  let rand = experiment P.Config.mbpta_compliant in
  let measure e i = T.Experiment.measure e ~run_index:i in
  let input =
    {
      M.Campaign.runs = spec.runs;
      measure_det = measure det;
      measure_rand = measure rand;
      options = Sp.options spec;
      engineering_factor = spec.engineering_factor;
    }
  in
  match M.Campaign.run ~jobs:1 input with
  | Ok c -> M.Campaign.render c
  | Error f -> Alcotest.failf "direct campaign failed: %a" M.Protocol.pp_failure f

let counter counters name = List.assoc_opt name counters

(* ------------------------------------------------------------------ *)

let test_cold_warm_bit_identical () =
  let spec = spec ~seed:4101L in
  let reference = direct_render spec in
  with_server @@ fun _srv sock ->
  let events = ref 0 in
  (match
     request ~on_event:(fun _ -> incr events) sock (Sp.Campaign { spec; events = true })
   with
  | Sp.Report { served = Sp.Cold; report; counters; _ } ->
      Alcotest.(check string) "cold report equals sequential reference" reference report;
      (match counter counters "cache.runs_simulated" with
      | Some n when n > 0 -> ()
      | c -> Alcotest.failf "cold request should simulate (got %a)" Fmt.(option int) c);
      Alcotest.(check bool) "events streamed while computing" true (!events > 0)
  | r -> Alcotest.failf "expected a cold report, got %s" (Sp.response_to_line r));
  match request sock (Sp.Campaign { spec; events = false }) with
  | Sp.Report { served = Sp.Warm; report; counters; _ } ->
      Alcotest.(check string) "warm report bit-identical" reference report;
      Alcotest.(check (option int))
        "warm request simulates nothing" (Some 0)
        (counter counters "cache.runs_simulated")
  | r -> Alcotest.failf "expected a warm report, got %s" (Sp.response_to_line r)

let test_concurrent_coalesced () =
  let identical = spec ~seed:4102L in
  let distinct = spec ~seed:4103L in
  let reference = direct_render identical in
  let release = Atomic.make false in
  let hook _key = while not (Atomic.get release) do Thread.delay 0.005 done in
  with_server ~on_job_start:hook @@ fun srv sock ->
  let n = 3 in
  let results = Array.make (n + 1) None in
  let client i sp () =
    results.(i) <- Some (S.Client.request ~socket_path:sock (Sp.Campaign { spec = sp; events = false }))
  in
  let threads =
    List.init n (fun i -> Thread.create (client i identical) ())
    @ [ Thread.create (client n distinct) () ]
  in
  (* The hook stalls the first job, so the other identical requests must
     coalesce onto it (and the distinct one must not) before we let any
     campaign compute. *)
  let deadline = Unix.gettimeofday () +. 20. in
  let coalesced () =
    counter (M.Trace.Counters.snapshot (S.Server.counters srv)) "serve.dedup_coalesced"
  in
  while coalesced () <> Some (n - 1) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check (option int)) "identical requests coalesced" (Some (n - 1)) (coalesced ());
  Atomic.set release true;
  List.iter Thread.join threads;
  let served_of = function
    | Some (Ok (Sp.Report { served; report; _ })) ->
        Alcotest.(check string) "every waiter gets the reference bytes" reference report;
        served
    | Some (Ok r) -> Alcotest.failf "expected a report, got %s" (Sp.response_to_line r)
    | Some (Error e) -> Alcotest.failf "client failed: %s" e
    | None -> Alcotest.fail "client never completed"
  in
  let identical_served = List.init n (fun i -> served_of results.(i)) in
  Alcotest.(check int) "exactly one computed cold" 1
    (List.length (List.filter (fun s -> s = Sp.Cold) identical_served));
  Alcotest.(check int) "the rest coalesced" (n - 1)
    (List.length (List.filter (fun s -> s = Sp.Coalesced) identical_served));
  match results.(n) with
  | Some (Ok (Sp.Report { served = Sp.Cold; report; _ })) ->
      Alcotest.(check string) "distinct spec computed its own report"
        (direct_render distinct) report
  | _ -> Alcotest.fail "distinct spec should have computed cold"

let test_overload_rejected () =
  let blocked = spec ~seed:4104L in
  let refused = spec ~seed:4105L in
  let release = Atomic.make false in
  let started = Atomic.make false in
  let hook _key =
    Atomic.set started true;
    while not (Atomic.get release) do Thread.delay 0.005 done
  in
  (* max_queue 0: one campaign may compute, nothing may wait. *)
  with_server ~max_queue:0 ~on_job_start:hook @@ fun _srv sock ->
  let first = ref None in
  let th =
    Thread.create
      (fun () ->
        first := Some (S.Client.request ~socket_path:sock (Sp.Campaign { spec = blocked; events = false })))
      ()
  in
  let deadline = Unix.gettimeofday () +. 20. in
  while (not (Atomic.get started)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  Alcotest.(check bool) "first campaign admitted" true (Atomic.get started);
  (* The daemon is saturated: a distinct campaign must be refused with a
     typed rejection immediately — not hang behind the blocked job. *)
  (match request sock (Sp.Campaign { spec = refused; events = false }) with
  | Sp.Rejected { reason; _ } ->
      Alcotest.(check string) "typed overload reason" Sp.reason_overloaded reason
  | r -> Alcotest.failf "expected overload rejection, got %s" (Sp.response_to_line r));
  Atomic.set release true;
  Thread.join th;
  match !first with
  | Some (Ok (Sp.Report { served = Sp.Cold; _ })) -> ()
  | _ -> Alcotest.fail "the admitted campaign should still complete cold"

let test_warm_queries () =
  let spec = spec ~seed:4106L in
  with_server @@ fun _srv sock ->
  (* Nothing recorded yet: warm-only queries must miss, never compute. *)
  (match request sock (Sp.Query { spec; query = Sp.Pwcet 1e-9 }) with
  | Sp.Miss _ -> ()
  | r -> Alcotest.failf "expected a miss on a cold store, got %s" (Sp.response_to_line r));
  (match request sock (Sp.Campaign { spec; events = false }) with
  | Sp.Report { served = Sp.Cold; _ } -> ()
  | r -> Alcotest.failf "expected a cold report, got %s" (Sp.response_to_line r));
  (match request sock (Sp.Query { spec; query = Sp.Pwcet 1e-9 }) with
  | Sp.Answer { value = M.Trace.Json.Float v; counters; _ } ->
      Alcotest.(check bool) "pWCET estimate is a positive finite float" true
        (Float.is_finite v && v > 0.);
      Alcotest.(check (option int))
        "warm query simulates nothing (counter-proved)" (Some 0)
        (counter counters "cache.runs_simulated")
  | r -> Alcotest.failf "expected a warm pWCET answer, got %s" (Sp.response_to_line r));
  match request sock (Sp.Query { spec; query = Sp.Iid_verdict }) with
  | Sp.Answer { value = M.Trace.Json.Obj fields; counters; _ } ->
      Alcotest.(check bool) "verdict carries accepted" true
        (match List.assoc_opt "accepted" fields with
        | Some (M.Trace.Json.Bool _) -> true
        | _ -> false);
      Alcotest.(check (option int))
        "i.i.d. query simulates nothing" (Some 0)
        (counter counters "cache.runs_simulated")
  | r -> Alcotest.failf "expected an i.i.d. answer, got %s" (Sp.response_to_line r)

(* ------------------------------------------------------------------ *)
(* Analysis memo *)

let record_file sock (spec : Sp.spec) =
  Filename.concat (Filename.concat (Filename.dirname sock) "store") (Sp.store_key spec ^ ".jsonl")

(* The daemon memoizes a fit only once the record's mtime is older than
   its racy window, which a record a campaign has just written may not
   be, so tests age records explicitly.  A distinct [seconds] also changes the record's stamp,
   which voids any entry fitted before. *)
let age file ~seconds =
  let t = Unix.gettimeofday () -. seconds in
  Unix.utimes file t t

(* The in-process reference: the daemon's warm query analyzes the
   record's RAND phase, which is the sequential RAND measurement. *)
let in_process_analysis ?sample (spec : Sp.spec) =
  let sample =
    match sample with
    | Some s -> s
    | None ->
        let rand =
          T.Experiment.create ~frames:spec.frames ~config:P.Config.mbpta_compliant
            ~base_seed:spec.seed ()
        in
        Array.init spec.runs (fun i -> T.Experiment.measure rand ~run_index:i)
  in
  M.Protocol.analyze ~options:(Sp.options spec) ~jobs:1 sample

let warm_campaign sock spec =
  match request sock (Sp.Campaign { spec; events = false }) with
  | Sp.Report _ -> ()
  | r -> Alcotest.failf "expected a report, got %s" (Sp.response_to_line r)

(* Ask [query] and check the response against the in-process [reference]
   bit for bit; returns whether the memo answered it. *)
let check_query sock spec query reference =
  let bits = Int64.bits_of_float in
  match (request sock (Sp.Query { spec; query }), reference) with
  | Sp.Answer { value; counters; _ }, Ok (a : M.Protocol.analysis) ->
      (match (query, value) with
      | Sp.Pwcet p, M.Trace.Json.Float v ->
          Alcotest.(check int64)
            (Printf.sprintf "pWCET(%g) equals the in-process estimate" p)
            (bits (Repro_evt.Pwcet.estimate a.curve ~cutoff_probability:p))
            (bits v)
      | Sp.Iid_verdict, M.Trace.Json.Obj fields ->
          let float name =
            match List.assoc_opt name fields with
            | Some (M.Trace.Json.Float f) -> bits f
            | _ -> Alcotest.failf "verdict lacks %s" name
          in
          Alcotest.(check bool) "accepted equals in-process" true
            (List.assoc_opt "accepted" fields = Some (M.Trace.Json.Bool a.iid.accepted));
          Alcotest.(check int64) "lb_p equals in-process"
            (bits a.iid.ljung_box.Repro_stats.Ljung_box.p_value) (float "lb_p");
          Alcotest.(check int64) "ks_p equals in-process"
            (bits a.iid.kolmogorov_smirnov.Repro_stats.Ks.p_value) (float "ks_p")
      | _ -> Alcotest.failf "unexpected answer value for this query");
      Alcotest.(check (option int))
        "no run simulated" (Some 0)
        (counter counters "cache.runs_simulated");
      counter counters "serve.analysis_memo_hits" = Some 1
  | Sp.Failed msg, Error f ->
      Alcotest.(check string) "failure equals in-process"
        (Format.asprintf "analysis failed: %a" M.Protocol.pp_failure f)
        msg;
      false
  | r, _ -> Alcotest.failf "response disagrees with in-process: %s" (Sp.response_to_line r)

let cutoffs = List.init 13 (fun k -> float_of_string (Printf.sprintf "1e-%d" (k + 3)))

let test_memo_bit_identical () =
  let spec = spec ~seed:4110L in
  let reference = in_process_analysis spec in
  with_server @@ fun _srv sock ->
  warm_campaign sock spec;
  let file = record_file sock spec in
  List.iteri
    (fun k query ->
      (* a fresh stamp per query: the first answer is fitted, the second
         comes from the memo, and both must equal the reference *)
      age file ~seconds:(60. +. float_of_int k);
      Alcotest.(check bool) "first answer is fitted" false
        (check_query sock spec query reference);
      Alcotest.(check bool) "second answer comes from the memo" true
        (check_query sock spec query reference))
    (List.map (fun p -> Sp.Pwcet p) cutoffs @ [ Sp.Iid_verdict ])

let test_memo_record_rewrite () =
  let spec = spec ~seed:4111L in
  with_server @@ fun srv sock ->
  warm_campaign sock spec;
  let file = record_file sock spec in
  age file ~seconds:60.;
  let old = in_process_analysis spec in
  ignore (check_query sock spec (Sp.Pwcet 1e-9) old);
  Alcotest.(check bool) "old record answered from the memo" true
    (check_query sock spec (Sp.Pwcet 1e-9) old);
  (* Rewrite the record under the same key with a different sample. *)
  List.iter Sys.remove [ file; file ^ ".idx" ];
  let synthetic ~phase i =
    1000. +. float_of_int ((i * 7919 + phase) mod 613) +. (50. *. sin (float_of_int i))
  in
  let root = M.Store.open_root ~dir:(Filename.dirname file) in
  (match
     M.Store.open_session root ~key:(Sp.store_key spec) ~config:(Sp.store_config spec)
       ~runs:spec.runs ~resilient:false
   with
  | Error e -> Alcotest.failf "rewrite: %s" e
  | Ok s ->
      ignore (M.Store.collect s ~jobs:1 ~phase:"collect_det" spec.runs (synthetic ~phase:1));
      ignore (M.Store.collect s ~jobs:1 ~phase:"collect_rand" spec.runs (synthetic ~phase:2));
      M.Store.close s);
  let fresh = in_process_analysis ~sample:(Array.init spec.runs (synthetic ~phase:2)) spec in
  Alcotest.(check bool) "rewritten record is fitted" false
    (check_query sock spec (Sp.Pwcet 1e-9) fresh);
  (* Records not yet older than the racy window are fitted on every
     query: one stamped in the future, and one stamped in whole seconds
     less than two seconds ago. *)
  let not_memoized name =
    ignore (check_query sock spec (Sp.Pwcet 1e-9) fresh);
    Alcotest.(check bool) name false (check_query sock spec (Sp.Pwcet 1e-9) fresh)
  in
  age file ~seconds:(-5.);
  not_memoized "a record stamped in the future is not memoized";
  let whole = Float.round (Unix.gettimeofday () -. 1.) in
  Unix.utimes file whole whole;
  not_memoized "a whole-second stamp under two seconds old is not memoized";
  age file ~seconds:30.;
  ignore (check_query sock spec (Sp.Pwcet 1e-9) fresh);
  Alcotest.(check bool) "aged rewrite answered from the memo" true
    (check_query sock spec (Sp.Pwcet 1e-9) fresh);
  let totals = M.Trace.Counters.snapshot (S.Server.counters srv) in
  Alcotest.(check (option int)) "memo hits in the status totals" (Some 2)
    (counter totals "serve.analysis_memo_hits");
  Alcotest.(check (option int)) "memo misses in the status totals" (Some 7)
    (counter totals "serve.analysis_memo_misses")

let test_memo_options_distinct () =
  let base = spec ~seed:4112L in
  let variants =
    [
      base;
      { base with tail = M.Protocol.Gev };
      { base with tail = M.Protocol.Pot };
      { base with no_gates = false };
      { base with bootstrap = 20 };
    ]
  in
  List.iter
    (fun v ->
      Alcotest.(check string) "variants share one record" (Sp.store_key base)
        (Sp.store_key v))
    variants;
  with_server @@ fun srv sock ->
  warm_campaign sock base;
  age (record_file sock base) ~seconds:60.;
  let references = List.map (fun v -> (v, in_process_analysis v)) variants in
  (* Round one fits every option set; had two shared an entry, a later
     one would come from the memo (and, for a different tail, answer the
     wrong value).  Round two must answer each from its own entry. *)
  List.iter
    (fun (v, reference) ->
      Alcotest.(check bool) "each option set is fitted once" false
        (check_query sock v (Sp.Pwcet 1e-9) reference))
    references;
  List.iter (fun (v, reference) -> ignore (check_query sock v (Sp.Pwcet 1e-9) reference)) references;
  (* Counted in the totals, since a failed analysis answers without
     counters: its failure is memoized like a fit. *)
  Alcotest.(check (option int)) "round two comes from the memo, entry by entry"
    (Some (List.length variants))
    (counter (M.Trace.Counters.snapshot (S.Server.counters srv)) "serve.analysis_memo_hits")

let test_shutdown_drains () =
  let in_flight = spec ~seed:4107L in
  let queued = spec ~seed:4108L in
  let release = Atomic.make false in
  let started = Atomic.make false in
  let hook _key =
    Atomic.set started true;
    while not (Atomic.get release) do Thread.delay 0.005 done
  in
  with_server ~max_queue:2 ~on_job_start:hook @@ fun srv sock ->
  let answers = Array.make 2 None in
  let submit i sp =
    Thread.create
      (fun () ->
        answers.(i) <- Some (S.Client.request ~socket_path:sock (Sp.Campaign { spec = sp; events = false })))
      ()
  in
  let t0 = submit 0 in_flight in
  let deadline = Unix.gettimeofday () +. 20. in
  while (not (Atomic.get started)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  let t1 = submit 1 queued in
  let requests () =
    counter (M.Trace.Counters.snapshot (S.Server.counters srv)) "serve.requests"
  in
  while requests () < Some 2 && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  (match request sock Sp.Shutdown with
  | Sp.Shutdown_ack -> ()
  | r -> Alcotest.failf "expected a shutdown ack, got %s" (Sp.response_to_line r));
  (* Release the in-flight campaign into the raised shutdown flag: it
     checkpoints at its first chunk barrier; the queued job is rejected
     without ever starting. *)
  Atomic.set release true;
  Thread.join t0;
  Thread.join t1;
  Array.iter
    (fun a ->
      match a with
      | Some (Ok (Sp.Rejected { reason; _ })) ->
          Alcotest.(check string) "typed shutdown rejection" Sp.reason_shutting_down
            reason
      | Some (Ok r) ->
          Alcotest.failf "expected shutdown rejection, got %s" (Sp.response_to_line r)
      | Some (Error e) -> Alcotest.failf "client failed: %s" e
      | None -> Alcotest.fail "client never completed")
    answers;
  S.Server.wait srv;
  Alcotest.(check bool) "socket file removed on drain" false (Sys.file_exists sock);
  match S.Client.request ~socket_path:sock Sp.Status with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a drained daemon must not answer"

let test_protocol_roundtrip () =
  let spec = { (spec ~seed:4109L) with seu_rate = 0.25; watchdog_budget = Some 90_000 } in
  let reqs =
    [
      Sp.Campaign { spec; events = true };
      Sp.Query { spec; query = Sp.Pwcet 1e-9 };
      Sp.Query { spec; query = Sp.Iid_verdict };
      Sp.Status;
      Sp.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      match Sp.request_of_line (Sp.request_to_line r) with
      | Ok r' ->
          Alcotest.(check string) "request round-trips" (Sp.request_to_line r)
            (Sp.request_to_line r')
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    reqs;
  (* The store key must survive the wire: a spec parsed back from JSON
     addresses the same record (floats travel as %.17g). *)
  (match Sp.request_of_line (Sp.request_to_line (Sp.Campaign { spec; events = false })) with
  | Ok (Sp.Campaign { spec = spec'; _ }) ->
      Alcotest.(check string) "store key stable across the wire" (Sp.store_key spec)
        (Sp.store_key spec')
  | _ -> Alcotest.fail "campaign request did not round-trip");
  (* Pinned keys: the names of the records `mbpta analyze --runs 200
     --cache-dir D` writes, without and with `--seu-rate 40
     --watchdog-budget 2000000 --max-retries 3`.  A changed key silently
     orphans every stored record. *)
  let runs200 = { Sp.default_spec with runs = 200 } in
  Alcotest.(check string) "fault-free store key pinned" "2044d761d14a631ec87844ff0242281f"
    (Sp.store_key runs200);
  Alcotest.(check string) "resilient store key pinned" "d00e2056d179dd125a2548316845393a"
    (Sp.store_key
       { runs200 with seu_rate = 40.; watchdog_budget = Some 2_000_000; max_retries = 3 });
  (* One spec past each bound of the validator; the daemon must refuse
     every one before it touches the store. *)
  let d = Sp.default_spec in
  List.iter
    (fun (field, bad) ->
      (match Sp.validate_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "validate_spec accepted a bad %s" field);
      match
        Sp.request_of_line (Sp.request_to_line (Sp.Campaign { spec = bad; events = false }))
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "a campaign with a bad %s parsed" field)
    [
      ("runs", { d with runs = 0 });
      ("frames", { d with frames = 0 });
      ("seu_rate", { d with seu_rate = -1. });
      ("engineering_factor", { d with engineering_factor = 0.5 });
      ("min_survival", { d with min_survival = 1.5 });
      ("bootstrap", { d with bootstrap = 5 });
      ("max_retries", { d with max_retries = -1 });
      ("watchdog_budget", { d with seu_rate = 1.; watchdog_budget = Some 0 });
    ]

let test_bad_spec_refused () =
  with_server @@ fun _srv sock ->
  let spec = { (spec ~seed:4110L) with seu_rate = 1.; watchdog_budget = Some 0 } in
  (match request sock (Sp.Campaign { spec; events = false }) with
  | Sp.Failed msg ->
      Alcotest.(check string) "typed refusal"
        "bad request: watchdog_budget must be >= 1 (got 0)" msg
  | r -> Alcotest.failf "expected a refusal, got %s" (Sp.response_to_line r));
  let store = Filename.concat (Filename.dirname sock) "store" in
  let records =
    if Sys.file_exists store then
      List.filter
        (fun f -> Filename.check_suffix f ".jsonl")
        (Array.to_list (Sys.readdir store))
    else []
  in
  Alcotest.(check (list string)) "no record created" [] records

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [ Alcotest.test_case "request round-trip + key stability" `Quick
            test_protocol_roundtrip ] );
      ( "serving",
        [
          Alcotest.test_case "cold/warm bit-identical to sequential" `Quick
            test_cold_warm_bit_identical;
          Alcotest.test_case "concurrent identical requests coalesce" `Quick
            test_concurrent_coalesced;
          Alcotest.test_case "warm-only queries" `Quick test_warm_queries;
        ] );
      ( "memo",
        [
          Alcotest.test_case "memo answers bit-identical to fits" `Quick
            test_memo_bit_identical;
          Alcotest.test_case "rewritten record is refitted" `Quick
            test_memo_record_rewrite;
          Alcotest.test_case "option sets never share an entry" `Quick
            test_memo_options_distinct;
        ] );
      ( "admission",
        [
          Alcotest.test_case "overload gets a typed rejection" `Quick test_overload_rejected;
          Alcotest.test_case "out-of-bounds spec refused, no record" `Quick
            test_bad_spec_refused;
        ] );
      ( "shutdown",
        [ Alcotest.test_case "drain rejects queued, checkpoints in-flight" `Quick
            test_shutdown_drains ] );
    ]
