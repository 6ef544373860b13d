(* perfbench probe: the in-process half of the repository benchmark.

   [run.py] drives the built [mbpta_cli] for the end-to-end workloads and
   calls this executable for everything that needs the library API:

     probe fingerprint
         host and runtime facts, one JSON object on stdout
     probe calibrate
         CPU seconds of a fixed kernel independent of the repository
     probe mkstore PLAN DIR OUT
         write the warm-query store (synthetic latencies) and the request
         lines a client sends for it
     probe reference PLAN DIR OUT
         the warm-query answers computed in-process on the same records
     probe layers SEED NPROC BOUND WORKDIR OUT SPANS
         the per-layer metrics of the traced run, with spans, and the
         benchmark's self-check against BOUND

   Host time comes from the monotonic clock and is always named [*_ms],
   [*_us] or [*_ns]; simulated quantities (instructions, cycles, cache and
   TLB misses) are counts from [Metrics.t] and are deterministic. *)

module P = Repro_platform
module T = Repro_tvca
module M = Repro_mbpta
module E = Repro_evt
module Srv = Repro_serve
module Sp = Repro_serve.Serve_protocol
module J = M.Trace.Json

let now_ns = Repro_profile.now_ns
let frames = T.Mission.default_frames
let fail fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------------ *)
(* Spans: kept in memory, written once at exit. *)

type span = { id : int; name : string; parent : int; t0 : int64; t1 : int64 }

let span_lock = Mutex.create ()
let span_log : span list ref = ref []
let span_seq = ref 0
let current_span = ref 0

let record_span ~parent name t0 =
  let t1 = now_ns () in
  Mutex.lock span_lock;
  incr span_seq;
  span_log := { id = !span_seq; name; parent; t0; t1 } :: !span_log;
  Mutex.unlock span_lock

(* Main-thread span: nested calls take it as their parent.  Ids are
   assigned at close, so a parent's id is larger than its children's; the
   [parent] field links them. *)
let span name f =
  Mutex.lock span_lock;
  incr span_seq;
  let id = !span_seq in
  Mutex.unlock span_lock;
  let parent = !current_span and t0 = now_ns () in
  current_span := id;
  let finish () =
    current_span := parent;
    let t1 = now_ns () in
    Mutex.lock span_lock;
    span_log := { id; name; parent; t0; t1 } :: !span_log;
    Mutex.unlock span_lock
  in
  Fun.protect ~finally:finish f

let spans_json () =
  J.List
    (List.rev_map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.id);
             ("name", J.String s.name);
             ("parent", J.Int s.parent);
             ("start_ns", J.String (Int64.to_string s.t0));
             ("end_ns", J.String (Int64.to_string s.t1));
           ])
       !span_log)

(* ------------------------------------------------------------------ *)
(* Small helpers *)

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, Int64.to_float (Int64.sub (now_ns ()) t0))

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [reps] timings of [f], in ns; returns the median. *)
let median_ns reps f = median (Array.init reps (fun _ -> snd (timed f)))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.of_string s with Ok j -> j | Error e -> fail "%s: %s" path e

let member k j = match J.member k j with Some v -> v | None -> fail "missing %S" k
let to_int j = match J.to_int j with Some v -> v | None -> fail "not an int"

let to_float j =
  match j with J.Int i -> float_of_int i | _ -> (
    match J.to_float j with Some v -> v | None -> fail "not a number")

let to_list = function J.List l -> l | _ -> fail "not a list"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir path =
  rm_rf path;
  M.Trace.ensure_dir path;
  path

let file_size path = (Unix.stat path).Unix.st_size

(* ------------------------------------------------------------------ *)
(* Synthetic measurements: a pure function of (record seed, phase, run),
   Gumbel-distributed whole cycle counts around the simulator's range.  The
   warm-query records are synthetic on purpose: that workload times the
   store, the analysis and the daemon, never the simulator. *)

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let uniform ~seed ~salt i =
  let z =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int seed) 0x9e3779b97f4a7c15L)
         (Int64.add (Int64.mul (Int64.of_int i) 0x632be59bd9b4e019L) (Int64.of_int salt)))
  in
  (Int64.to_float (Int64.shift_right_logical z 11) +. 0.5) *. 0x1p-53

let synthetic ~seed ~phase i =
  let u = uniform ~seed ~salt:(Hashtbl.hash phase) i in
  let mu = 220_000. +. float_of_int (seed mod 4000) in
  if phase = "collect_det" then Float.round (mu -. 2000. +. (300. *. u))
  else
    let beta = 500. +. float_of_int (seed mod 300) in
    Float.round (mu -. (beta *. log (-.log u)))

let phases = [ "collect_det"; "collect_rand" ]
let spec_of ~seed ~runs = { Sp.default_spec with Sp.runs; seed = Int64.of_int seed; no_gates = true }

let open_session ?shard root ~key ~config ~runs ~resilient =
  match M.Store.open_session ?shard root ~key ~config ~runs ~resilient with
  | Ok s -> s
  | Error e -> fail "open_session: %s" e

(* One fault-free DET+RAND record under the key the daemon derives for
   [spec], written through the same session/collect path a campaign uses. *)
let write_record root spec ~seed =
  let runs = spec.Sp.runs in
  let s =
    open_session root ~key:(Sp.store_key spec) ~config:(Sp.store_config spec) ~runs
      ~resilient:false
  in
  Fun.protect ~finally:(fun () -> M.Store.close s) @@ fun () ->
  List.iter
    (fun phase -> ignore (M.Store.collect ~jobs:1 s ~phase runs (synthetic ~seed ~phase)))
    phases

(* The daemon's warm read + fit, done in-process: open the record, replay
   the RAND phase, run the protocol's analysis. *)
let read_and_fit root spec =
  let runs = spec.Sp.runs in
  let s =
    open_session root ~key:(Sp.store_key spec) ~config:(Sp.store_config spec) ~runs
      ~resilient:false
  in
  let sample =
    Fun.protect ~finally:(fun () -> M.Store.close s) @@ fun () ->
    M.Store.collect ~jobs:1 s ~phase:"collect_rand" runs (fun _ ->
        fail "record %s is not complete" (Sp.store_key spec))
  in
  match M.Protocol.analyze ~options:(Sp.options spec) ~jobs:1 sample with
  | Ok a -> a
  | Error f -> fail "analysis failed: %s" (Format.asprintf "%a" M.Protocol.pp_failure f)

let iid_json (a : M.Protocol.analysis) =
  let iid = a.M.Protocol.iid in
  J.Obj
    [
      ("accepted", J.Bool iid.M.Iid.accepted);
      ("lb_p", J.Float iid.M.Iid.ljung_box.Repro_stats.Ljung_box.p_value);
      ("ks_p", J.Float iid.M.Iid.kolmogorov_smirnov.Repro_stats.Ks.p_value);
    ]

(* ------------------------------------------------------------------ *)
(* fingerprint *)

let fingerprint () =
  print_endline
    (J.to_string
       (J.Obj
          [
            ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
            ("ocaml_version", J.String Sys.ocaml_version);
          ]))

(* ------------------------------------------------------------------ *)
(* Host-speed calibration: a fixed kernel that uses none of the
   repository's code (array updates, float arithmetic, short-lived
   allocation), timed in process CPU time; the median of 5. *)

let calibrate () =
  let kernel () =
    let n = 1 lsl 16 in
    let a = Array.init n float_of_int in
    let acc = ref 0. in
    for r = 1 to 300 do
      for i = 0 to n - 1 do
        let j = ((i * 7919) + r) land (n - 1) in
        a.(j) <- (a.(j) *. 0.999) +. float_of_int (i land 15);
        acc := !acc +. a.(i)
      done;
      ignore (Sys.opaque_identity (List.init 2000 (fun k -> (k, float_of_int k))))
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let cost () =
    let t0 = Sys.time () in
    kernel ();
    Sys.time () -. t0
  in
  Printf.printf "%.17g\n" (median (Array.init 5 (fun _ -> cost ())))

(* ------------------------------------------------------------------ *)
(* Warm-query store and its in-process reference *)

let plan_records plan =
  List.map
    (fun r -> (to_int (member "seed" r), to_int (member "runs" r)))
    (to_list (member "records" plan))

let plan_cutoffs plan = List.map to_float (to_list (member "cutoffs" plan))

let mkstore ~plan ~dir ~out =
  let plan = read_json plan in
  let root = M.Store.open_root ~dir in
  let records =
    List.map
      (fun (seed, runs) ->
        let spec = spec_of ~seed ~runs in
        write_record root spec ~seed;
        let line query = J.String (Sp.request_to_line (Sp.Query { spec; query })) in
        J.Obj
          [
            ("iid", line Sp.Iid_verdict);
            ("pwcet", J.List (List.map (fun p -> line (Sp.Pwcet p)) (plan_cutoffs plan)));
          ])
      (plan_records plan)
  in
  write_file out (J.to_string (J.Obj [ ("records", J.List records) ]))

let reference ~plan ~dir ~out =
  let plan = read_json plan in
  let root = M.Store.open_root ~dir in
  let records =
    List.map
      (fun (seed, runs) ->
        let spec = spec_of ~seed ~runs in
        let a = read_and_fit root spec in
        J.Obj
          [
            ("iid", iid_json a);
            ( "pwcet",
              J.List
                (List.map
                   (fun p ->
                     J.Float (E.Pwcet.estimate a.M.Protocol.curve ~cutoff_probability:p))
                   (plan_cutoffs plan)) );
          ])
      (plan_records plan)
  in
  write_file out (J.to_string (J.Obj [ ("records", J.List records) ]))

(* ------------------------------------------------------------------ *)
(* Per-layer probes *)

let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics
let checks : (string * bool) list ref = ref []
let check name ok = checks := (name, ok) :: !checks

let counter_fields =
  [
    ("sim.instructions", fun (m : P.Metrics.t) -> m.P.Metrics.instructions);
    ("sim.cycles", fun m -> m.P.Metrics.cycles);
    ("platform.il1_misses", fun m -> m.P.Metrics.il1_misses);
    ("platform.dl1_misses", fun m -> m.P.Metrics.dl1_misses);
    ("platform.itlb_misses", fun m -> m.P.Metrics.itlb_misses);
    ("platform.dtlb_misses", fun m -> m.P.Metrics.dtlb_misses);
    ("platform.bus_transactions", fun m -> m.P.Metrics.bus_transactions);
    ("platform.dram_row_misses", fun m -> m.P.Metrics.dram_row_misses);
    ("platform.fp_long_ops", fun m -> m.P.Metrics.fp_long_ops);
  ]

let create ~config ~base_seed = T.Experiment.create ~frames ~config ~base_seed ()

(* tvca: codegen + layout + decode, scenario generation, seed derivation *)
let probe_tvca ~base_seed =
  span "tvca" @@ fun () ->
  let cap = T.Experiment.decode_cache_capacity () in
  (* a one-entry decode cache and alternating frame counts make every
     create a miss, so each sample pays codegen and decode *)
  T.Experiment.set_decode_cache_capacity 1;
  let create_ns =
    Array.init 6 (fun k ->
        snd
          (timed (fun () ->
               span "tvca.create" (fun () ->
                   T.Experiment.create ~frames:(if k mod 2 = 0 then frames else frames - 1)
                     ~config:P.Config.mbpta_compliant ~base_seed ()))))
  in
  T.Experiment.set_decode_cache_capacity cap;
  metric "tvca.create_ms" "ms" (median create_ns /. 1e6);
  let rand = create ~config:P.Config.mbpta_compliant ~base_seed in
  let mem = Repro_isa.Memory.create (T.Experiment.program rand) in
  let n = 300 in
  let (), ns =
    timed (fun () ->
        span "tvca.mission" (fun () ->
            for i = 0 to n - 1 do
              let sc =
                T.Mission.generate ~frames
                  ~seed:(T.Experiment.scenario_seed rand ~run_index:i)
                  ()
              in
              T.Mission.load_memory sc mem
            done))
  in
  metric "tvca.mission_us_per_run" "us" (ns /. float n /. 1e3);
  let n = 200_000 in
  let acc = ref 0L in
  let (), ns =
    timed (fun () ->
        span "rng.seed" (fun () ->
            for i = 0 to n - 1 do
              acc :=
                Int64.logxor !acc
                  (Int64.logxor
                     (T.Experiment.scenario_seed rand ~run_index:i)
                     (T.Experiment.platform_seed rand ~run_index:i ~attempt:0))
            done))
  in
  ignore (Sys.opaque_identity !acc);
  metric "rng.seed_ns" "ns" (ns /. float n)

(* simulator: Experiment.run per configuration, its counts, its allocation *)
let probe_experiment ~det ~rand =
  let n = 250 in
  List.iter
    (fun (label, exp) ->
      span ("experiment.run." ^ label) @@ fun () ->
      (* the first run on a domain builds its simulator scratch *)
      ignore (T.Experiment.run exp ~run_index:n);
      let times = Array.make n 0. in
      let sums = Array.make (List.length counter_fields) 0 in
      for i = 0 to n - 1 do
        let m, ns = timed (fun () -> T.Experiment.run exp ~run_index:i) in
        times.(i) <- ns;
        List.iteri (fun k (_, get) -> sums.(k) <- sums.(k) + get m) counter_fields
      done;
      let total_ns = Array.fold_left ( +. ) 0. times in
      metric ("experiment.run_us." ^ label) "us" (median times /. 1e3);
      List.iteri
        (fun k (name, _) ->
          metric (name ^ "." ^ label) "count" (float_of_int sums.(k) /. float n))
        counter_fields;
      metric
        ("sim.host_ns_per_instr." ^ label)
        "ns"
        (total_ns /. float_of_int sums.(0)))
    [ ("det", det); ("rand", rand) ];
  let n = 40 in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore (Sys.opaque_identity (T.Experiment.run rand ~run_index:i))
  done;
  metric "gc.minor_words_per_run" "words" ((Gc.minor_words () -. w0) /. float n)

let resilience_outcome_of = function
  | T.Experiment.Completed { metrics; _ } ->
      M.Resilience.Completed (float_of_int (P.Metrics.cycles metrics))
  | T.Experiment.Watchdog { cycles; budget; _ } ->
      M.Resilience.Timeout { detail = Printf.sprintf "watchdog %d/%d" cycles budget }
  | T.Experiment.Runaway { program; _ } -> M.Resilience.Timeout { detail = program }
  | T.Experiment.Crashed { detail; _ } -> M.Resilience.Crashed { detail }
  | T.Experiment.Corrupted { worst_error; _ } ->
      M.Resilience.Corrupted { detail = string_of_float worst_error }

(* fault path: Experiment.run_faulty under the supervisor, with the
   faulty-shards workload's settings *)
let probe_faulty ~det ~rand =
  span "resilience" @@ fun () ->
  let fault = T.Experiment.fault_config ~seu_rate:40. ~watchdog_budget:2_000_000 () in
  let policy = { M.Resilience.default_policy with M.Resilience.max_retries = 3 } in
  let times = ref [] in
  let retries = ref 0 and dropped = ref 0 in
  List.iter
    (fun exp ->
      let measure ~run_index ~attempt =
        let o, ns =
          timed (fun () -> T.Experiment.run_faulty exp ~fault ~attempt ~run_index ())
        in
        times := ns :: !times;
        resilience_outcome_of o
      in
      match M.Resilience.supervise ~jobs:1 ~policy ~runs:160 ~measure () with
      | Ok r ->
          retries := !retries + r.M.Resilience.total_retries;
          dropped := !dropped + r.M.Resilience.dropped_runs
      | Error e -> fail "supervise: %s" (Format.asprintf "%a" M.Resilience.pp_error e))
    [ det; rand ];
  metric "experiment.run_faulty_us" "us" (median (Array.of_list !times) /. 1e3);
  metric "fault.retries" "count" (float_of_int !retries);
  metric "fault.dropped" "count" (float_of_int !dropped)

let no_gates =
  { M.Protocol.default_options with M.Protocol.gate_on_iid = false; check_convergence = false }

(* domain pool: Campaign.run at jobs 1 and at nproc jobs, in ABBA order *)
let probe_parallel ~det ~rand ~nproc =
  span "parallel" @@ fun () ->
  let seen = Array.init 64 (fun _ -> Atomic.make false) in
  let note () = Atomic.set seen.((Domain.self () :> int) land 63) true in
  let input =
    {
      M.Campaign.runs = 192;
      measure_det = (fun i -> note (); T.Experiment.measure det ~run_index:i);
      measure_rand = (fun i -> note (); T.Experiment.measure rand ~run_index:i);
      options = no_gates;
      engineering_factor = 1.5;
    }
  in
  let rate jobs =
    let r, ns =
      timed (fun () ->
          span (Printf.sprintf "parallel.campaign.jobs%d" jobs) (fun () ->
              M.Campaign.run ~jobs input))
    in
    (match r with Ok _ -> () | Error _ -> fail "Campaign.run failed");
    float_of_int (2 * input.M.Campaign.runs) /. (ns /. 1e9)
  in
  let a1 = rate 1 in
  Array.iter (fun f -> Atomic.set f false) seen;
  let an = rate nproc in
  let main = (Domain.self () :> int) land 63 in
  let spawned = ref 0 in
  Array.iteri (fun i f -> if i <> main && Atomic.get f then incr spawned) seen;
  let bn = rate nproc in
  let b1 = rate 1 in
  metric "parallel.efficiency" "ratio" ((an +. bn) /. (float_of_int nproc *. (a1 +. b1)));
  metric "parallel.domains_spawned" "count" (float_of_int !spawned)

(* Synthetic resilient trails: mostly clean runs, some retried, a few
   quarantined — the shapes a faulty campaign persists. *)
let synthetic_trail ~seed ~phase i : M.Store.trail =
  let u = uniform ~seed ~salt:(Hashtbl.hash phase + 7) i in
  let v = M.Store.Completed (synthetic ~seed ~phase i) in
  if u < 0.8 then [ v ]
  else if u < 0.97 then [ M.Store.Crashed "data access out of bounds"; v ]
  else if u < 0.995 then [ M.Store.Timeout "watchdog fired"; M.Store.Corrupted "1e-3"; v ]
  else List.init 4 (fun _ -> M.Store.Crashed "data access out of bounds")

let resilient_config ~seed =
  [ ("bench", "perfbench"); ("seed", string_of_int seed); ("resilient", "true") ]

let write_trails ?shard root ~seed ~runs =
  let config = resilient_config ~seed in
  let key = M.Store.key config in
  let s = open_session ?shard root ~key ~config ~runs ~resilient:true in
  let lo, hi = M.Store.shard_span s in
  let chunk = M.Store.chunk_size s in
  Fun.protect ~finally:(fun () -> M.Store.close s) @@ fun () ->
  List.iter
    (fun phase ->
      let rec go lo =
        if lo < hi then begin
          let len = min chunk (hi - lo) in
          M.Store.persist_trails s ~phase ~lo
            (Array.init len (fun k -> synthetic_trail ~seed ~phase (lo + k)));
          go (lo + len)
        end
      in
      go lo)
    phases;
  Filename.concat (M.Store.dir root) (key ^ ".jsonl")

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* store: binary decode, warm collect of a 10^5-run record, persist /
   merge / verify of a resilient 3,000-run record *)
let probe_store ~seed ~workdir =
  span "store" @@ fun () ->
  let big = 100_000 in
  let xs = Array.init big (synthetic ~seed ~phase:"collect_rand") in
  let enc = M.Store.F64.encode xs in
  let decode_ns =
    median_ns 9 (fun () ->
        span "store.decode" (fun () ->
            match M.Store.F64.decode enc ~n:big with
            | Ok ys -> ignore (Sys.opaque_identity ys)
            | Error e -> fail "decode: %s" e))
  in
  metric "store.decode_ns_per_run" "ns" (decode_ns /. float big);
  let root = M.Store.open_root ~dir:(fresh_dir (Filename.concat workdir "big")) in
  let spec = spec_of ~seed ~runs:big in
  span "store.write" (fun () -> write_record root spec ~seed);
  let file = Filename.concat (M.Store.dir root) (Sp.store_key spec ^ ".jsonl") in
  metric "store.bytes_per_run" "B" (float_of_int (file_size file) /. float big);
  let warm () =
    let s =
      open_session root ~key:(Sp.store_key spec) ~config:(Sp.store_config spec) ~runs:big
        ~resilient:false
    in
    Fun.protect ~finally:(fun () -> M.Store.close s) @@ fun () ->
    M.Store.collect ~jobs:1 s ~phase:"collect_rand" big (fun _ -> fail "cold chunk")
  in
  let ys = warm () in
  check "store.warm_collect_bit_identical" (ys = xs);
  metric "store.warm_collect_ms" "ms"
    (median_ns 5 (fun () -> span "store.warm_collect" (fun () -> ignore (warm ()))) /. 1e6);
  let runs = 3000 in
  let persist_ns = ref [] and merge_ns = ref [] and verify_ns = ref [] in
  for rep = 0 to 2 do
    let dir name = fresh_dir (Filename.concat workdir (Printf.sprintf "%s%d" name rep)) in
    let single = M.Store.open_root ~dir:(dir "single") in
    let ref_file, ns =
      timed (fun () -> span "store.persist" (fun () -> write_trails single ~seed ~runs))
    in
    persist_ns := ns :: !persist_ns;
    let spans = M.Coordinator.shard_spans ~shards:2 ~chunk_size:M.Store.default_chunk_size ~runs in
    let src =
      List.mapi
        (fun k shard ->
          let r = M.Store.open_root ~dir:(dir (Printf.sprintf "shard%d-" k)) in
          ignore (write_trails ~shard r ~seed ~runs);
          r)
        spans
    in
    let dst = M.Store.open_root ~dir:(dir "merged") in
    let r, ns = timed (fun () -> span "store.merge" (fun () -> M.Store.merge ~src dst)) in
    (match r with Ok _ -> () | Error e -> fail "merge: %s" e);
    merge_ns := ns :: !merge_ns;
    let merged = Filename.concat (M.Store.dir dst) (Filename.basename ref_file) in
    check "store.merge_bit_identical" (read_file merged = read_file ref_file);
    let entries, ns = timed (fun () -> span "store.verify" (fun () -> M.Store.ls ~deep:true dst)) in
    verify_ns := ns :: !verify_ns;
    check "store.verify_complete"
      (List.for_all (fun e -> e.M.Store.status = M.Store.Complete) entries)
  done;
  let med l = median (Array.of_list l) /. 1e6 in
  metric "store.persist_ms" "ms" (med !persist_ns);
  metric "store.merge_ms" "ms" (med !merge_ns);
  metric "store.verify_ms" "ms" (med !verify_ns);
  xs

(* analysis: i.i.d. tests, EVT fit, estimates, convergence study *)
let probe_analysis big_sample =
  span "analysis" @@ fun () ->
  let small = Array.sub big_sample 0 3000 in
  metric "iid.check_ms.3000" "ms"
    (median_ns 7 (fun () -> span "iid.check" (fun () -> ignore (M.Iid.check small))) /. 1e6);
  metric "iid.check_ms.100000" "ms"
    (median_ns 3 (fun () -> span "iid.check" (fun () -> ignore (M.Iid.check big_sample)))
    /. 1e6);
  let block_size = E.Block_maxima.suggest_block_size (Array.length small) in
  let model = E.Pwcet.Gumbel_tail (E.Gumbel_fit.fit (E.Block_maxima.extract ~block_size small)) in
  let curve = E.Pwcet.create ~model ~block_size ~sample:small in
  metric "evt.pwcet_create_ms" "ms"
    (median_ns 7 (fun () ->
         span "evt.pwcet_create" (fun () ->
             ignore (E.Pwcet.create ~model ~block_size ~sample:small)))
    /. 1e6);
  let cutoffs = M.Protocol.standard_cutoffs in
  let reps = 2000 in
  let acc = ref 0. in
  let (), ns =
    timed (fun () ->
        span "evt.estimate" (fun () ->
            for _ = 1 to reps do
              List.iter
                (fun p -> acc := !acc +. E.Pwcet.estimate curve ~cutoff_probability:p)
                cutoffs
            done))
  in
  ignore (Sys.opaque_identity !acc);
  metric "evt.estimate_us" "us" (ns /. float (reps * List.length cutoffs) /. 1e3);
  metric "evt.convergence_ms" "ms"
    (median_ns 5 (fun () ->
         span "evt.convergence" (fun () -> ignore (E.Convergence.study small)))
    /. 1e6)

(* serve: the daemon in-process and one sequential client on a warm
   3,000-run key, against the in-process read + fit of the same key — the
   difference is what the socket, the protocol and the daemon add per
   request; then pairs of concurrent clients on that key.  (Concurrent
   clients on distinct keys are the warm-query workload's job.) *)
let probe_serve ~seed ~workdir ~nproc =
  span "serve" @@ fun () ->
  let dir = fresh_dir (Filename.concat workdir "serve") in
  let root = M.Store.open_root ~dir in
  let spec = spec_of ~seed:(seed + 1) ~runs:3000 in
  write_record root spec ~seed:(seed + 1);
  let w0 = Gc.minor_words () in
  let a = read_and_fit root spec in
  metric "gc.minor_words_per_query" "words" (Gc.minor_words () -. w0);
  let fit_ns =
    median_ns 15 (fun () -> span "serve.read_fit" (fun () -> ignore (read_and_fit root spec)))
  in
  let socket_path = Filename.concat workdir "probe.sock" in
  let cfg =
    {
      Srv.Server.socket_path;
      store_dir = dir;
      jobs = nproc;
      max_queue = 8;
      max_clients = 32;
      trace = None;
    }
  in
  let server = match Srv.Server.start cfg with Ok s -> s | Error e -> fail "serve: %s" e in
  let cutoffs = Array.of_list M.Protocol.standard_cutoffs in
  let lat = ref [] and wrong = ref 0 and refused = ref 0 in
  let parent = !current_span in
  for k = 0 to 79 do
    let p = cutoffs.(k mod Array.length cutoffs) in
    let t0 = now_ns () in
    let r = Srv.Client.request ~socket_path (Sp.Query { spec; query = Sp.Pwcet p }) in
    record_span ~parent "serve.request" t0;
    match r with
    | Ok (Sp.Answer { value = J.Float v; _ }) ->
        lat := Int64.to_float (Int64.sub (now_ns ()) t0) :: !lat;
        if v <> E.Pwcet.estimate a.M.Protocol.curve ~cutoff_probability:p then incr wrong
    | _ -> incr refused
  done;
  (* Two clients asking about the same warm key at the same moment: while
     one holds the key's store session the other is answered Miss, because
     Store.open_session takes the writer lock before it can tell that the
     record is complete.  The count depends on timing, so it is a metric,
     not a check; a fix shows as 0. *)
  let same_key_misses = Atomic.make 0 in
  for k = 0 to 39 do
    let p = cutoffs.(k mod Array.length cutoffs) in
    let ask () =
      match Srv.Client.request ~socket_path (Sp.Query { spec; query = Sp.Pwcet p }) with
      | Ok (Sp.Miss _) -> Atomic.incr same_key_misses
      | _ -> ()
    in
    let other = Thread.create ask () in
    ask ();
    Thread.join other
  done;
  let counters = M.Trace.Counters.snapshot (Srv.Server.counters server) in
  Srv.Server.stop server;
  let count name = float_of_int (Option.value ~default:0 (List.assoc_opt name counters)) in
  check "serve.answers_match_in_process" (!wrong = 0);
  check "serve.every_request_answered" (!refused = 0);
  check "serve.no_runs_simulated" (count "cache.runs_simulated" = 0.);
  metric "serve.overhead_ms" "ms" ((median (Array.of_list !lat) -. fit_ns) /. 1e6);
  metric "serve.rejected" "count"
    (count "serve.rejected_overload" +. count "serve.rejected_clients");
  metric "serve.dedup_coalesced" "count" (count "serve.dedup_coalesced");
  metric "serve.same_key_misses" "count" (float_of_int (Atomic.get same_key_misses));
  metric "serve.runs_simulated" "count" (count "cache.runs_simulated")

(* ------------------------------------------------------------------ *)
(* Self-check: a mini campaign through Experiment.run, once as is and
   once with every call doing its work twice.  The benchmark's bound on
   cpu_ms_per_op must flag the doubled code and pass the unchanged code.
   Batches are timed in process CPU time, like the gated metric. *)

let selfcheck_ratios ~base_seed ~bound =
  span "selfcheck" @@ fun () ->
  let rand = create ~config:P.Config.mbpta_compliant ~base_seed in
  let batch = 40 in
  let once i = T.Experiment.run rand ~run_index:i in
  let twice i =
    ignore (Sys.opaque_identity (T.Experiment.run rand ~run_index:i));
    T.Experiment.run rand ~run_index:i
  in
  let cost run =
    let t0 = Sys.time () in
    for i = 0 to batch - 1 do
      ignore (Sys.opaque_identity (run i))
    done;
    Sys.time () -. t0
  in
  ignore (cost once);
  let reps = 5 in
  let a = Array.make reps 0. and b = Array.make reps 0. and c = Array.make reps 0. in
  for k = 0 to reps - 1 do
    a.(k) <- cost once;
    b.(k) <- cost once;
    c.(k) <- cost twice
  done;
  (* the benchmark's rule for a lower-is-better metric: a regression is a
     median above the base median by more than the bound *)
  let regressed base cand = median cand > median base *. (1. +. bound) in
  let ok = (not (regressed a b)) && regressed a c in
  (median b /. median a, median c /. median a, ok)

let layers ~seed ~nproc ~bound ~workdir ~out ~spans_out =
  let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  let out = absolute out and spans_out = absolute spans_out in
  (* Work inside the work directory, so that store paths, and the words
     allocated to build them, do not depend on where it lives. *)
  M.Trace.ensure_dir workdir;
  Sys.chdir workdir;
  let workdir = "." in
  let base_seed = Int64.of_int seed in
  probe_tvca ~base_seed;
  let det = create ~config:P.Config.deterministic ~base_seed in
  let rand = create ~config:P.Config.mbpta_compliant ~base_seed in
  probe_experiment ~det ~rand;
  probe_faulty ~det ~rand;
  probe_parallel ~det ~rand ~nproc;
  let big = probe_store ~seed ~workdir in
  probe_analysis big;
  probe_serve ~seed ~workdir ~nproc;
  let unchanged, doubled, ok = selfcheck_ratios ~base_seed ~bound in
  check "selfcheck.bound_flags_doubled_run" ok;
  write_file spans_out (J.to_string (spans_json ()));
  write_file out
    (J.to_string
       (J.Obj
          [
            ( "metrics",
              J.Obj
                (List.rev_map
                   (fun (name, value, unit) ->
                     (name, J.Obj [ ("value", J.Float value); ("unit", J.String unit) ]))
                   !metrics) );
            ("checks", J.Obj (List.rev_map (fun (n, ok) -> (n, J.Bool ok)) !checks));
            ( "selfcheck",
              J.Obj
                [ ("unchanged_ratio", J.Float unchanged); ("doubled_ratio", J.Float doubled) ]
            );
          ]))

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "fingerprint" ] -> fingerprint ()
  | [ "calibrate" ] -> calibrate ()
  | [ "mkstore"; plan; dir; out ] -> mkstore ~plan ~dir ~out
  | [ "reference"; plan; dir; out ] -> reference ~plan ~dir ~out
  | [ "layers"; seed; nproc; bound; workdir; out; spans_out ] ->
      layers ~seed:(int_of_string seed) ~nproc:(int_of_string nproc)
        ~bound:(float_of_string bound) ~workdir ~out ~spans_out
  | _ ->
      prerr_endline
        "usage: probe fingerprint | calibrate | mkstore PLAN DIR OUT | reference PLAN DIR OUT\n\
        \       | layers SEED NPROC BOUND WORKDIR OUT SPANS";
      exit 2
