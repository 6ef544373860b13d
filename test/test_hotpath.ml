(* Golden digests of the instruction executor's observable outputs.  Every
   literal below is the MD5 of a canonical text rendering of outputs on
   fixed inputs: per-run metrics on every kernel and both platform configs,
   batched experiment runs, fault-injected runs with their upset records,
   whole campaigns (trace file and store record bytes at jobs 1 and 4),
   RTOS schedules under each policy, fixed-input (leak) runs, execution-path
   signatures and the functional check.  The literals were produced by the
   per-instruction reference executor that preceded the pre-decoded runner,
   and the runner reproduces them bit for bit; a mismatch means a sample, a
   PRNG draw order or a scheduling decision changed.  On a mismatch the
   rendered lines are printed to stderr so the first diverging line can be
   found by diffing against the output of a known-good checkout. *)

module P = Repro_platform
module T = Repro_tvca
module M = Repro_mbpta
module Isa = Repro_isa
module K = Repro_workloads.Kernels
module Prng = Repro_rng.Prng

let checkb what = Alcotest.(check bool) what
let checks what = Alcotest.(check string) what

let check_digest what expected lines =
  let got = Digest.to_hex (Digest.string (String.concat "\n" lines)) in
  if got <> expected then List.iter prerr_endline lines;
  checks what expected got

let pp_metrics (m : P.Metrics.t) =
  Printf.sprintf
    "c=%d i=%d il1=%d/%d dl1=%d/%d itlb=%d dtlb=%d bus=%d dram=%d/%d fp=%d tb=%d f=%d"
    m.cycles m.instructions m.il1_hits m.il1_misses m.dl1_hits m.dl1_misses
    m.itlb_misses m.dtlb_misses m.bus_transactions m.dram_row_hits m.dram_row_misses
    m.fp_long_ops m.taken_branches m.faults_injected

let platforms = [ ("DET", P.Config.deterministic); ("RAND", P.Config.mbpta_compliant) ]

(* ------------------------------------------------------------------ *)
(* Core_sim.run_decoded on every workload kernel *)

let test_kernels_golden () =
  let lines =
    List.concat_map
      (fun (k : K.t) ->
        List.map
          (fun (pname, config) ->
            let layout = Isa.Layout.sequential k.K.program in
            let memory = Isa.Memory.create k.K.program in
            k.K.load_input memory (Prng.create 99L);
            let decoded = Isa.Executor.Decoded.decode ~program:k.K.program ~layout in
            let runner = Isa.Executor.Decoded.Runner.create ~decoded ~memory () in
            let core = P.Core_sim.create ~config ~seed:424242L () in
            let m = P.Core_sim.run_decoded core ~runner in
            checkb
              (Printf.sprintf "%s %s functional check" k.K.name pname)
              true
              (match k.K.check memory with Ok () -> true | Error _ -> false);
            Printf.sprintf "%s %s %s" k.K.name pname (pp_metrics m))
          platforms)
      (K.all ())
  in
  check_digest "kernels x DET/RAND metrics" "161872bb3f39eda9795fcd5c3d8519a3" lines

(* ------------------------------------------------------------------ *)
(* Experiment: batched runs *)

let experiments () =
  ( T.Experiment.create ~frames:4 ~config:P.Config.deterministic ~base_seed:2017L (),
    T.Experiment.create ~frames:4 ~config:P.Config.mbpta_compliant ~base_seed:2017L () )

let test_experiment_golden () =
  let det, rand = experiments () in
  let lines =
    List.concat_map
      (fun (pname, exp) ->
        List.init 12 (fun i ->
            let m = T.Experiment.run exp ~run_index:i in
            checkb
              (Printf.sprintf "%s measure %d" pname i)
              true
              (T.Experiment.measure exp ~run_index:i
              = float_of_int (P.Metrics.cycles m));
            Printf.sprintf "%s %d %s" pname i (pp_metrics m)))
      [ ("DET", det); ("RAND", rand) ]
  in
  check_digest "runs 0-11 DET/RAND metrics" "4848afb4a7d45cbd14952cf7a34824f9" lines;
  (* Interleaving other runs on the same batched scratch must not perturb
     a run: the scratch replays the full per-run protocol. *)
  List.iter
    (fun (pname, exp) ->
      let a = T.Experiment.measure exp ~run_index:3 in
      let _ = T.Experiment.measure_fixed_scenario exp ~scenario_index:1 ~run_index:5 in
      let _ = T.Experiment.measure exp ~run_index:7 in
      let b = T.Experiment.measure exp ~run_index:3 in
      checkb (Printf.sprintf "%s batched is stateless across calls" pname) true (a = b))
    [ ("DET", det); ("RAND", rand) ]

(* ------------------------------------------------------------------ *)
(* Fault injection: the supervised runner *)

let pp_outcome = Format.asprintf "%a" T.Experiment.pp_fault_outcome

let test_faulty_golden () =
  let _, rand = experiments () in
  let fault = T.Experiment.fault_config ~seu_rate:120.0 ~watchdog_budget:2_000_000 () in
  let lines =
    List.concat
      (List.init 8 (fun i ->
           List.init 2 (fun attempt ->
               let o = T.Experiment.run_faulty rand ~fault ~attempt ~run_index:i () in
               let metrics =
                 match o with
                 | T.Experiment.Completed { metrics; _ } -> pp_metrics metrics
                 | _ -> "-"
               in
               Printf.sprintf "%d %d %s %s [%s]" i attempt (pp_outcome o) metrics
                 (String.concat "; "
                    (List.map
                       (Format.asprintf "%a" P.Fault.pp_record)
                       (T.Experiment.fault_records o))))))
  in
  check_digest "faulty runs 0-7 x attempts 0-1, SEU 120"
    "09e30df81ffbe8d336ae9b405935ccd4" lines;
  (* With injection off and no watchdog, the supervised path must be
     bit-identical to the plain batched run. *)
  let off = T.Experiment.fault_config () in
  for i = 0 to 3 do
    match T.Experiment.run_faulty rand ~fault:off ~run_index:i () with
    | T.Experiment.Completed { metrics; faults } ->
        checkb (Printf.sprintf "no-fault run %d has no records" i) true (faults = []);
        checks
          (Printf.sprintf "no-fault run %d equals run" i)
          (pp_metrics (T.Experiment.run rand ~run_index:i))
          (pp_metrics metrics)
    | o -> Alcotest.failf "no-fault run %d not Completed: %s" i (pp_outcome o)
  done

(* Watchdog budgets below the run's cycles: the outcome pins the cycle
   count at which the watchdog fired, hence the instruction that crossed
   the budget, with and without upsets.  The 119,500 budget sits near the
   end of a run, so some runs complete and some fire. *)
let test_watchdog_golden () =
  let det, rand = experiments () in
  let lines =
    List.concat_map
      (fun (pname, exp) ->
        List.concat_map
          (fun (seu_rate, watchdog_budget) ->
            let fault = T.Experiment.fault_config ~seu_rate ~watchdog_budget () in
            List.init 8 (fun i ->
                let o = T.Experiment.run_faulty exp ~fault ~run_index:i () in
                Printf.sprintf "%s %g %d %d %s [%s]" pname seu_rate watchdog_budget i
                  (pp_outcome o)
                  (String.concat "; "
                     (List.map
                        (Format.asprintf "%a" P.Fault.pp_record)
                        (T.Experiment.fault_records o)))))
          [ (0., 60_000); (0., 119_500); (120., 60_000); (120., 119_500) ])
      [ ("DET", det); ("RAND", rand) ]
  in
  check_digest "watchdog below the run's cycles, DET/RAND, SEU 0 and 120"
    "d0f1e827239893ba695a0a57f7335cdd" lines

(* ------------------------------------------------------------------ *)
(* Whole campaigns: trace files and store records at jobs 1 and 4 *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let campaign_runs = 140

let campaign_artifacts ~jobs =
  let det, rand = experiments () in
  let measure exp i = T.Experiment.measure exp ~run_index:i in
  let input =
    {
      (M.Campaign.default_input ~measure_det:(measure det) ~measure_rand:(measure rand))
      with
      M.Campaign.runs = campaign_runs;
      M.Campaign.options =
        {
          M.Protocol.default_options with
          M.Protocol.check_convergence = false;
          M.Protocol.gate_on_iid = false;
        };
    }
  in
  let dir = Filename.temp_file "hotpath_store" "" in
  Sys.remove dir;
  let trace_path = Filename.temp_file "hotpath_trace" ".jsonl" in
  Sys.remove trace_path;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Sys.remove trace_path with Sys_error _ -> ())
  @@ fun () ->
  let config = [ ("test", "hotpath"); ("runs", string_of_int campaign_runs) ] in
  let key = M.Store.key ~chunk_size:32 config in
  let session =
    match
      M.Store.open_session ~chunk_size:32 (M.Store.open_root ~dir) ~key ~config
        ~runs:campaign_runs ~resilient:false
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "open_session: %s" e
  in
  let trace = M.Trace.create ~path:trace_path () in
  let result =
    Fun.protect
      ~finally:(fun () ->
        M.Trace.close trace;
        M.Store.close session)
      (fun () -> M.Campaign.run ~jobs ~trace ~store:session input)
  in
  let samples =
    match result with
    | Ok c ->
        List.map
          (fun xs -> String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") xs)))
          [ c.M.Campaign.det_sample; c.M.Campaign.rand_sample ]
    | Error f -> Alcotest.failf "campaign failed: %a" M.Protocol.pp_failure f
  in
  (read_file trace_path, read_file (Filename.concat dir (key ^ ".jsonl")), samples)

let test_campaign_byte_identity () =
  List.iter
    (fun jobs ->
      let trace, record, samples = campaign_artifacts ~jobs in
      let what = Printf.sprintf "jobs=%d" jobs in
      check_digest (what ^ ": samples") "7d3190187aeedc48b964866c0c4a3306" samples;
      check_digest (what ^ ": trace file") "cf23c0edc3d8eafed6560adfb10fa32e" [ trace ];
      check_digest (what ^ ": store record") "a9d697425b29d312bebf274d7a28e787" [ record ])
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* RTOS schedules, fixed-input runs, path signatures, functional check *)

let test_schedules_golden () =
  let _, rand = experiments () in
  (* The CLI's shuffle defaults, then a period short enough that jobs
     overrun (skipped releases) and preempt each other mid-activation. *)
  let settings = [ (60_000, 2_000, 240_000); (3_000, 1_500, 60_000) ] in
  let lines =
    List.concat_map
      (fun policy ->
        List.concat_map
          (fun (period, max_jitter, horizon) ->
            List.init 4 (fun i ->
                let r =
                  T.Experiment.run_schedule rand ~policy ~period ~max_jitter ~horizon
                    ~run_index:i ()
                in
                Printf.sprintf "%s %d %d %h p=%d s=%d %s" (T.Rtos.policy_name policy)
                  period i r.T.Experiment.worst_response r.T.Experiment.preemptions
                  r.T.Experiment.skipped_releases r.T.Experiment.signature))
          settings)
      T.Rtos.all_policies
  in
  check_digest "run_schedule per policy" "719226c1dd2027994dd9292ff348a7d8" lines

let test_fixed_scenario_golden () =
  let det, rand = experiments () in
  let lines =
    List.concat_map
      (fun (pname, exp) ->
        List.concat_map
          (fun scenario_index ->
            List.init 8 (fun i ->
                Printf.sprintf "%s %d %d %h" pname scenario_index i
                  (T.Experiment.measure_fixed_scenario exp ~scenario_index ~run_index:i)))
          [ 0; 1 ])
      [ ("DET", det); ("RAND", rand) ]
  in
  check_digest "measure_fixed_scenario DET/RAND" "74d1081976082848da5f5fe41150b4ae" lines

let test_paths_golden () =
  let _, rand = experiments () in
  check_digest "path_signature runs 0-31" "157f7899665832e79e180538e917e6df"
    (List.init 32 (fun i -> string_of_int (T.Experiment.path_signature rand ~run_index:i)));
  check_digest "check_functional runs 0-3" "daa541ed364a6360581d748913ecd1c0"
    (List.init 4 (fun i -> Printf.sprintf "%h" (T.Experiment.check_functional rand ~run_index:i)))

(* ------------------------------------------------------------------ *)
(* Instrumentation sanity: the decode cache and batch scratches are
   actually exercised by the above (a healthy hot path reuses both). *)

let test_hotpath_counters () =
  let hits, misses = T.Experiment.decode_cache_stats () in
  checkb "decode cache consulted" true (hits + misses > 0);
  checkb "decode cache hit at least once" true (hits > 0);
  let created, reused = T.Experiment.batch_stats () in
  checkb "scratches created" true (created > 0);
  checkb "runs reused a scratch" true (reused > created)

(* Scenario generation and the platform-seed draw are separate profile
   stages, each entered once per run. *)
let test_profile_stages () =
  let _, rand = experiments () in
  let runs = 25 in
  M.Profile.reset ();
  M.Profile.set_enabled true;
  let (_ : float array) =
    Fun.protect
      ~finally:(fun () -> M.Profile.set_enabled false)
      (fun () -> T.Experiment.collect rand ~runs)
  in
  let calls stage =
    (List.find (fun e -> e.M.Profile.stage = stage) (M.Profile.snapshot ())).M.Profile.calls
  in
  Alcotest.(check int) "scenario calls" runs (calls M.Profile.Scenario);
  Alcotest.(check int) "seed_derivation calls" runs (calls M.Profile.Seed_derivation);
  M.Profile.reset ()

(* The decode cache is process-global in a long-lived daemon, so it must
   stay bounded: cycling more distinct configs than the cap may never
   grow it past the cap, eviction must be LRU, and the hit/miss counters
   must stay consistent through evictions. *)
let test_decode_cache_bounded () =
  let default_cap = T.Experiment.decode_cache_capacity () in
  Fun.protect ~finally:(fun () -> T.Experiment.set_decode_cache_capacity default_cap)
  @@ fun () ->
  let touch frames =
    let e =
      T.Experiment.create ~frames ~config:P.Config.deterministic ~base_seed:7L ()
    in
    ignore (T.Experiment.measure e ~run_index:0)
  in
  (match T.Experiment.set_decode_cache_capacity 0 with
  | () -> Alcotest.fail "a cap of 0 must be rejected"
  | exception Invalid_argument _ -> ());
  let cap = 4 in
  T.Experiment.set_decode_cache_capacity cap;
  checkb "lowering the cap shrinks immediately" true
    (T.Experiment.decode_cache_size () <= cap);
  (* cycle 3x the cap's worth of distinct configs (frames is part of the
     codegen key): size must never exceed the cap *)
  for frames = 21 to 20 + (3 * cap) do
    touch frames;
    checkb "size stays within the cap" true (T.Experiment.decode_cache_size () <= cap)
  done;
  Alcotest.(check int) "cache is full after the cycle" cap
    (T.Experiment.decode_cache_size ());
  (* LRU order: the newest [cap] configs are resident (hits), the ones
     cycled out first are gone (misses) *)
  let hits_of f =
    let h0, m0 = T.Experiment.decode_cache_stats () in
    touch f;
    let h1, m1 = T.Experiment.decode_cache_stats () in
    Alcotest.(check int) "each lookup is one hit or one miss" 1
      (h1 - h0 + (m1 - m0));
    h1 - h0 = 1
  in
  checkb "most recent config still cached" true (hits_of (20 + (3 * cap)));
  checkb "evicted config misses again" false (hits_of 21);
  (* recaching 21 evicted the then-oldest entry, never the cap *)
  Alcotest.(check int) "re-insertion respects the cap" cap
    (T.Experiment.decode_cache_size ())

let () =
  Alcotest.run "hotpath"
    [
      ( "decoded",
        [ Alcotest.test_case "kernels DET+RAND: golden digests" `Quick test_kernels_golden ]
      );
      ( "experiment",
        [
          Alcotest.test_case "batched run/measure: golden digests" `Quick
            test_experiment_golden;
          Alcotest.test_case "faulty runs (SEU>0): golden digests" `Quick
            test_faulty_golden;
          Alcotest.test_case "watchdog below the run's cycles: golden digests" `Quick
            test_watchdog_golden;
          Alcotest.test_case "schedules per policy: golden digests" `Quick
            test_schedules_golden;
          Alcotest.test_case "fixed-input runs: golden digests" `Quick
            test_fixed_scenario_golden;
          Alcotest.test_case "paths + functional: golden digests" `Quick
            test_paths_golden;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "trace+store byte identity, jobs 1 and 4" `Quick
            test_campaign_byte_identity;
        ] );
      ( "counters",
        [
          Alcotest.test_case "decode cache + batch exercised" `Quick test_hotpath_counters;
          Alcotest.test_case "profile: scenario + seed stages" `Quick
            test_profile_stages;
        ] );
      ( "lru",
        [
          Alcotest.test_case "decode cache bounded with LRU eviction" `Quick
            test_decode_cache_bounded;
        ] );
    ]
