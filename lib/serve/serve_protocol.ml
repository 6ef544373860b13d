(* Wire protocol of the campaign daemon: newline-delimited JSON over a
   Unix socket, one request line per connection, zero or more event lines
   followed by exactly one final response line back.  The writer and
   parser are Trace's bit-exact JSON codec — floats round-trip via %.17g,
   so a probability or SEU rate crosses the socket without losing a bit,
   and the store key derived on either side is identical. *)

module M = Repro_mbpta
module T = Repro_tvca
module P = Repro_platform
module Json = M.Trace.Json

(* ------------------------------------------------------------------ *)
(* Campaign specification *)

type spec = {
  runs : int;
  seed : int64;
  frames : int;
  tail : M.Protocol.tail;
  no_gates : bool;
  bootstrap : int;
  engineering_factor : float;
  seu_rate : float;
  watchdog_budget : int option;
  max_retries : int;
  min_survival : float;
}

let default_spec =
  {
    runs = 3000;
    seed = 2017L;
    frames = T.Mission.default_frames;
    tail = M.Protocol.Gumbel;
    no_gates = false;
    bootstrap = 0;
    engineering_factor = 1.5;
    seu_rate = 0.;
    watchdog_budget = None;
    max_retries = 2;
    min_survival = 0.9;
  }

let resilient spec = spec.seu_rate > 0. || spec.watchdog_budget <> None

let tail_name = function
  | M.Protocol.Gumbel -> "gumbel"
  | M.Protocol.Gev -> "gev"
  | M.Protocol.Pot -> "pot"
  | M.Protocol.Exponential_pot -> "exp"

let tail_of_name = function
  | "gumbel" -> Ok M.Protocol.Gumbel
  | "gev" -> Ok M.Protocol.Gev
  | "pot" -> Ok M.Protocol.Pot
  | "exp" -> Ok M.Protocol.Exponential_pot
  | s -> Error (Printf.sprintf "unknown tail model %S (expected gumbel|gev|pot|exp)" s)

(* The store key digests only what determines a measured value; the
   analysis-side knobs (tail, gates, bootstrap, engineering factor,
   min_survival) deliberately stay out, so re-analysis is a cache hit.
   Changing a pair or its spelling orphans every stored record. *)
let store_config spec =
  let resilient = resilient spec in
  [
    ("campaign", "analyze");
    ("det_config", "deterministic");
    ("rand_config", "mbpta_compliant");
    ("seed", Int64.to_string spec.seed);
    ("frames", string_of_int spec.frames);
    ("runs", string_of_int spec.runs);
    ("resilient", string_of_bool resilient);
  ]
  @
  if resilient then
    [
      ("seu_rate", string_of_float spec.seu_rate);
      ( "watchdog_budget",
        match spec.watchdog_budget with None -> "none" | Some b -> string_of_int b );
      ("max_retries", string_of_int spec.max_retries);
    ]
  else []

let store_key spec = M.Store.key (store_config spec)

let options spec =
  let bootstrap =
    if spec.bootstrap = 0 then None
    else
      Some
        {
          M.Protocol.default_bootstrap_options with
          M.Protocol.replicates = spec.bootstrap;
          M.Protocol.bootstrap_seed = spec.seed;
        }
  in
  {
    M.Protocol.default_options with
    M.Protocol.tail = spec.tail;
    M.Protocol.gate_on_iid = not spec.no_gates;
    M.Protocol.check_convergence = not spec.no_gates;
    M.Protocol.bootstrap = bootstrap;
  }

let analysis_id spec =
  Printf.sprintf "tail=%s gates=%b bootstrap=%d%s" (tail_name spec.tail)
    (not spec.no_gates) spec.bootstrap
    (if spec.bootstrap = 0 then "" else " seed=" ^ Int64.to_string spec.seed)

let validate_spec spec =
  let fail fmt = Printf.ksprintf (fun e -> Error e) fmt in
  if spec.runs < 1 then fail "runs must be >= 1 (got %d)" spec.runs
  else if spec.frames < 1 then fail "frames must be >= 1 (got %d)" spec.frames
  else if spec.seu_rate < 0. then fail "seu_rate must be >= 0 (got %g)" spec.seu_rate
  else if not (spec.engineering_factor >= 1.) then
    fail "engineering_factor must be >= 1 (got %g)" spec.engineering_factor
  else if not (spec.min_survival >= 0. && spec.min_survival <= 1.) then
    fail "min_survival must lie in [0, 1] (got %g)" spec.min_survival
  else if spec.bootstrap <> 0 && spec.bootstrap < 20 then
    fail "bootstrap must be 0 (off) or >= 20 replicates (got %d)" spec.bootstrap
  else if spec.max_retries < 0 then
    fail "max_retries must be >= 0 (got %d)" spec.max_retries
  else
    match spec.watchdog_budget with
    | Some b when b < 1 -> fail "watchdog_budget must be >= 1 (got %d)" b
    | Some _ | None -> Ok spec

(* ------------------------------------------------------------------ *)
(* Measurement *)

(* Roll one run's micro-architectural counters into a registry.  Safe from
   any worker domain: additions commute, so the totals are deterministic
   at every job count. *)
let record_metrics counters ~prefix (m : P.Metrics.t) =
  let add name v = M.Trace.Counters.add counters (prefix ^ name) v in
  add "runs" 1;
  add "cycles" m.P.Metrics.cycles;
  add "instructions" m.P.Metrics.instructions;
  add "il1_misses" m.P.Metrics.il1_misses;
  add "dl1_misses" m.P.Metrics.dl1_misses;
  add "itlb_misses" m.P.Metrics.itlb_misses;
  add "dtlb_misses" m.P.Metrics.dtlb_misses;
  add "bus_transactions" m.P.Metrics.bus_transactions;
  add "dram_row_misses" m.P.Metrics.dram_row_misses;
  add "faults_injected" m.P.Metrics.faults_injected

(* Map the experiment's classified fault outcomes onto the supervisor's
   outcome type (the tvca and mbpta libraries deliberately do not know
   about each other; this glue is the only place both sides meet). *)
let resilience_outcome_of = function
  | T.Experiment.Completed { metrics; _ } ->
      M.Resilience.Completed (float_of_int (P.Metrics.cycles metrics))
  | T.Experiment.Watchdog { cycles; budget; _ } ->
      M.Resilience.Timeout
        { detail = Printf.sprintf "watchdog fired at %d cycles (budget %d)" cycles budget }
  | T.Experiment.Runaway { program; _ } ->
      M.Resilience.Timeout { detail = "runaway execution of " ^ program }
  | T.Experiment.Crashed { detail; _ } -> M.Resilience.Crashed { detail }
  | T.Experiment.Corrupted { worst_error; _ } ->
      M.Resilience.Corrupted
        { detail = Printf.sprintf "worst output error %g" worst_error }

(* The counting closure measures the same cycles bit for bit
   ([Experiment.measure] is [cycles (run ...)]). *)
let measure ?counters exp ~prefix =
  match counters with
  | None -> fun i -> T.Experiment.measure exp ~run_index:i
  | Some c ->
      fun i ->
        let m = T.Experiment.run exp ~run_index:i in
        record_metrics c ~prefix m;
        float_of_int (P.Metrics.cycles m)

let campaign_input ?counters spec =
  let experiment config =
    T.Experiment.create ~frames:spec.frames ~config ~base_seed:spec.seed ()
  in
  let det = experiment P.Config.deterministic in
  let rand = experiment P.Config.mbpta_compliant in
  let base =
    {
      M.Campaign.runs = spec.runs;
      measure_det = measure ?counters det ~prefix:"det.";
      measure_rand = measure ?counters rand ~prefix:"rand.";
      options = options spec;
      engineering_factor = spec.engineering_factor;
    }
  in
  if not (resilient spec) then `Plain base
  else begin
    let fault =
      T.Experiment.fault_config ~seu_rate:spec.seu_rate
        ?watchdog_budget:spec.watchdog_budget ()
    in
    let measure_outcome exp prefix ~run_index ~attempt =
      let outcome = T.Experiment.run_faulty exp ~fault ~attempt ~run_index () in
      (match (counters, outcome) with
      | Some c, T.Experiment.Completed { metrics; _ } -> record_metrics c ~prefix metrics
      | _ -> ());
      resilience_outcome_of outcome
    in
    let policy =
      {
        M.Resilience.default_policy with
        max_retries = spec.max_retries;
        min_survival = spec.min_survival;
      }
    in
    `Resilient
      (M.Campaign.resilient_input ~policy ~base
         ~measure_det_outcome:(measure_outcome det "det.")
         ~measure_rand_outcome:(measure_outcome rand "rand.") ())
  end

(* ------------------------------------------------------------------ *)
(* Requests / responses *)

type query = Pwcet of float  (** pWCET estimate at this cutoff probability *) | Iid_verdict

type request =
  | Campaign of { spec : spec; events : bool }
  | Query of { spec : spec; query : query }
  | Status
  | Shutdown

type served = Cold | Warm | Coalesced

let served_name = function Cold -> "cold" | Warm -> "warm" | Coalesced -> "coalesced"

let served_of_name = function
  | "cold" -> Ok Cold
  | "warm" -> Ok Warm
  | "coalesced" -> Ok Coalesced
  | s -> Error (Printf.sprintf "unknown served kind %S" s)

type response =
  | Report of {
      key : string;
      served : served;
      report : string;
      counters : (string * int) list;
    }
  | Answer of {
      key : string;
      query : query;
      value : Json.t;
      counters : (string * int) list;
    }
  | Miss of { key : string; reason : string }
  | Rejected of { reason : string; detail : string }
  | Status_report of {
      queue_depth : int;
      in_flight : int;
      clients : int;
      max_queue : int;
      max_clients : int;
      counters : (string * int) list;
    }
  | Event of M.Trace.event
  | Failed of string
  | Shutdown_ack

(* Typed rejection reasons — stable strings the tests and CI grep for. *)
let reason_overloaded = "overloaded"
let reason_shutting_down = "shutting_down"
let reason_too_many_clients = "too_many_clients"

(* ------------------------------------------------------------------ *)
(* JSON encoding *)

let json_of_counters kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs)

let counters_of_json = function
  | Some (Json.Obj kvs) ->
      List.filter_map (fun (k, v) -> Option.map (fun i -> (k, i)) (Json.to_int v)) kvs
  | _ -> []

let spec_fields spec =
  [
    ("runs", Json.Int spec.runs);
    ("seed", Json.String (Int64.to_string spec.seed));
    ("frames", Json.Int spec.frames);
    ("tail", Json.String (tail_name spec.tail));
    ("no_gates", Json.Bool spec.no_gates);
    ("bootstrap", Json.Int spec.bootstrap);
    ("engineering_factor", Json.Float spec.engineering_factor);
    ("seu_rate", Json.Float spec.seu_rate);
    ( "watchdog_budget",
      match spec.watchdog_budget with None -> Json.Null | Some b -> Json.Int b );
    ("max_retries", Json.Int spec.max_retries);
    ("min_survival", Json.Float spec.min_survival);
  ]

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let spec_of_json j =
  let int k d = match Option.bind (Json.member k j) Json.to_int with Some v -> v | None -> d in
  let flt k d =
    match Option.bind (Json.member k j) Json.to_float with Some v -> v | None -> d
  in
  let bool k d =
    match Option.bind (Json.member k j) Json.to_bool with Some v -> v | None -> d
  in
  let* seed =
    match Option.bind (Json.member "seed" j) Json.to_str with
    | None -> Ok default_spec.seed
    | Some s -> (
        match Int64.of_string_opt s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "malformed seed %S" s))
  in
  let* tail =
    match Option.bind (Json.member "tail" j) Json.to_str with
    | None -> Ok default_spec.tail
    | Some s -> tail_of_name s
  in
  let watchdog_budget =
    match Json.member "watchdog_budget" j with
    | Some (Json.Int b) -> Some b
    | _ -> default_spec.watchdog_budget
  in
  Ok
    {
      runs = int "runs" default_spec.runs;
      seed;
      frames = int "frames" default_spec.frames;
      tail;
      no_gates = bool "no_gates" default_spec.no_gates;
      bootstrap = int "bootstrap" default_spec.bootstrap;
      engineering_factor = flt "engineering_factor" default_spec.engineering_factor;
      seu_rate = flt "seu_rate" default_spec.seu_rate;
      watchdog_budget;
      max_retries = int "max_retries" default_spec.max_retries;
      min_survival = flt "min_survival" default_spec.min_survival;
    }

let query_fields = function
  | Pwcet p -> [ ("query", Json.String "pwcet"); ("probability", Json.Float p) ]
  | Iid_verdict -> [ ("query", Json.String "iid") ]

let query_of_json j =
  match Option.bind (Json.member "query" j) Json.to_str with
  | Some "pwcet" -> (
      match Option.bind (Json.member "probability" j) Json.to_float with
      | Some p when p > 0. && p < 1. -> Ok (Pwcet p)
      | Some _ -> Error "probability must lie in (0, 1)"
      | None -> Error "pwcet query needs a probability")
  | Some "iid" -> Ok Iid_verdict
  | Some q -> Error (Printf.sprintf "unknown query %S (expected pwcet|iid)" q)
  | None -> Error "query request has no \"query\""

let json_of_request = function
  | Campaign { spec; events } ->
      Json.Obj
        ([ ("req", Json.String "campaign"); ("events", Json.Bool events) ]
        @ spec_fields spec)
  | Query { spec; query } ->
      Json.Obj ((("req", Json.String "query") :: query_fields query) @ spec_fields spec)
  | Status -> Json.Obj [ ("req", Json.String "status") ]
  | Shutdown -> Json.Obj [ ("req", Json.String "shutdown") ]

let request_of_json j =
  match Option.bind (Json.member "req" j) Json.to_str with
  | None -> Error "request has no \"req\""
  | Some "campaign" ->
      let events =
        match Option.bind (Json.member "events" j) Json.to_bool with
        | Some b -> b
        | None -> false
      in
      let* spec = spec_of_json j in
      let* spec = validate_spec spec in
      Ok (Campaign { spec; events })
  | Some "query" ->
      let* query = query_of_json j in
      let* spec = spec_of_json j in
      let* spec = validate_spec spec in
      Ok (Query { spec; query })
  | Some "status" -> Ok Status
  | Some "shutdown" -> Ok Shutdown
  | Some r -> Error (Printf.sprintf "unknown request %S" r)

let json_of_response = function
  | Report { key; served; report; counters } ->
      Json.Obj
        [
          ("resp", Json.String "report");
          ("key", Json.String key);
          ("served", Json.String (served_name served));
          ("report", Json.String report);
          ("counters", json_of_counters counters);
        ]
  | Answer { key; query; value; counters } ->
      Json.Obj
        ([ ("resp", Json.String "answer"); ("key", Json.String key) ]
        @ query_fields query
        @ [ ("value", value); ("counters", json_of_counters counters) ])
  | Miss { key; reason } ->
      Json.Obj
        [
          ("resp", Json.String "miss");
          ("key", Json.String key);
          ("reason", Json.String reason);
        ]
  | Rejected { reason; detail } ->
      Json.Obj
        [
          ("resp", Json.String "rejected");
          ("reason", Json.String reason);
          ("detail", Json.String detail);
        ]
  | Status_report { queue_depth; in_flight; clients; max_queue; max_clients; counters }
    ->
      Json.Obj
        [
          ("resp", Json.String "status");
          ("queue_depth", Json.Int queue_depth);
          ("in_flight", Json.Int in_flight);
          ("clients", Json.Int clients);
          ("max_queue", Json.Int max_queue);
          ("max_clients", Json.Int max_clients);
          ("counters", json_of_counters counters);
        ]
  | Event e -> Json.Obj [ ("resp", Json.String "event"); ("event", M.Trace.json_of_event e) ]
  | Failed message ->
      Json.Obj [ ("resp", Json.String "error"); ("message", Json.String message) ]
  | Shutdown_ack -> Json.Obj [ ("resp", Json.String "shutdown_ack") ]

let response_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  let int k d = match Option.bind (Json.member k j) Json.to_int with Some v -> v | None -> d in
  let req k = match str k with Some v -> Ok v | None -> Error ("response has no " ^ k) in
  match str "resp" with
  | None -> Error "response has no \"resp\""
  | Some "report" ->
      let* key = req "key" in
      let* served =
        match str "served" with
        | Some s -> served_of_name s
        | None -> Error "report has no served kind"
      in
      let* report = req "report" in
      Ok (Report { key; served; report; counters = counters_of_json (Json.member "counters" j) })
  | Some "answer" ->
      let* key = req "key" in
      let* query = query_of_json j in
      let value = match Json.member "value" j with Some v -> v | None -> Json.Null in
      Ok (Answer { key; query; value; counters = counters_of_json (Json.member "counters" j) })
  | Some "miss" ->
      let* key = req "key" in
      let* reason = req "reason" in
      Ok (Miss { key; reason })
  | Some "rejected" ->
      let* reason = req "reason" in
      let* detail = req "detail" in
      Ok (Rejected { reason; detail })
  | Some "status" ->
      Ok
        (Status_report
           {
             queue_depth = int "queue_depth" 0;
             in_flight = int "in_flight" 0;
             clients = int "clients" 0;
             max_queue = int "max_queue" 0;
             max_clients = int "max_clients" 0;
             counters = counters_of_json (Json.member "counters" j);
           })
  | Some "event" -> (
      match Json.member "event" j with
      | Some ev ->
          let* e = M.Trace.event_of_json ev in
          Ok (Event e)
      | None -> Error "event response has no event")
  | Some "error" ->
      let* message = req "message" in
      Ok (Failed message)
  | Some "shutdown_ack" -> Ok Shutdown_ack
  | Some r -> Error (Printf.sprintf "unknown response %S" r)

let request_to_line r = Json.to_string (json_of_request r)
let response_to_line r = Json.to_string (json_of_response r)

let of_line parse s =
  match Json.of_string s with
  | Error e -> Error (Printf.sprintf "malformed JSON: %s" e)
  | Ok j -> parse j

let request_of_line s = of_line request_of_json s
let response_of_line s = of_line response_of_json s
