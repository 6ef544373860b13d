(** The analyze campaign and the wire protocol of the [mbpta serve] daemon
    (see DESIGN.md section 14).

    {!spec} and the functions over it are the one definition of an analyze
    campaign: [mbpta analyze], [mbpta client] and the daemon build, check,
    key and measure a campaign only through them, so a record either side
    warms is warm for the other.

    Newline-delimited JSON over a Unix socket.  A connection carries one
    request line; the daemon answers with zero or more {!Event} lines
    (campaign requests with [events = true] only) followed by exactly one
    final response line, then closes.  Serialization reuses
    {!Repro_mbpta.Trace.Json} — floats cross the wire via [%.17g], so the
    store key derived from a parsed spec is bit-identical to the
    sender's. *)

module M := Repro_mbpta

(** What to measure and how to analyze it: one field per analyze flag. *)
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

(** The flag defaults. *)
val default_spec : spec

(** [Error] names the first field outside its bound: [runs], [frames] and
    [watchdog_budget] (when set) must be >= 1, [seu_rate] and
    [max_retries] >= 0, [engineering_factor] >= 1, [min_survival] in
    [[0, 1]], and [bootstrap] 0 or >= 20.  {!request_of_line} applies it to
    every campaign and query. *)
val validate_spec : spec -> (spec, string) result

(** A spec measures with fault injection iff [seu_rate > 0] or a watchdog
    budget is set. *)
val resilient : spec -> bool

(** The content-addressed store configuration of this spec: only what
    determines a measured value, never an analysis-side field. *)
val store_config : spec -> (string * string) list

val store_key : spec -> string

(** Analysis options of this spec (tail, gates, bootstrap). *)
val options : spec -> M.Protocol.options

(** A canonical string of every spec field {!options} reads (tail, gates,
    bootstrap, and the seed when bootstrap is on): two specs with equal
    ids analyze a record identically.  With {!store_key} it keys the
    daemon's analysis memo. *)
val analysis_id : spec -> string

val tail_name : M.Protocol.tail -> string
val tail_of_name : string -> (M.Protocol.tail, string) result

(** [measure ?counters exp ~prefix] — run index to cycles on [exp].  With
    [counters], each run's micro-architectural metrics are also added to
    the registry under [prefix] (["runs"], ["cycles"], cache/TLB misses,
    ...); the totals do not depend on the job count.  The cycles are the
    same with or without counting. *)
val measure :
  ?counters:M.Trace.Counters.t -> Repro_tvca.Experiment.t -> prefix:string -> int -> float

(** [campaign_input ?counters spec] — the measurement closures and
    analysis inputs of [spec]'s DET and RAND experiments: [`Resilient]
    (supervised, fault-injected) iff {!resilient}.  Every completed run
    counts as in {!measure}, under ["det."]/["rand."].  Raises
    [Invalid_argument] on a negative [seu_rate] or a [watchdog_budget]
    below 1, which {!validate_spec} rejects first. *)
val campaign_input :
  ?counters:M.Trace.Counters.t ->
  spec ->
  [ `Plain of M.Campaign.input | `Resilient of M.Campaign.resilient_input ]

type query =
  | Pwcet of float  (** pWCET estimate at this cutoff probability *)
  | Iid_verdict

type request =
  | Campaign of { spec : spec; events : bool }
      (** run (or serve warm) the full campaign; [events] subscribes the
          connection to per-phase trace events while it computes *)
  | Query of { spec : spec; query : query }
      (** warm-only: answered straight from the store, never computes *)
  | Status
  | Shutdown

type served = Cold | Warm | Coalesced

val served_name : served -> string

type response =
  | Report of {
      key : string;
      served : served;
      report : string;  (** byte-identical to the CLI's analyze output *)
      counters : (string * int) list;  (** this request's scoped counters *)
    }
  | Answer of {
      key : string;
      query : query;
      value : M.Trace.Json.t;
      counters : (string * int) list;
    }
  | Miss of { key : string; reason : string }
      (** warm-only query against a cold/partial/in-flight record *)
  | Rejected of { reason : string; detail : string }
      (** typed admission-control rejection; [reason] is one of the
          [reason_*] constants below *)
  | Status_report of {
      queue_depth : int;
      in_flight : int;
      clients : int;
      max_queue : int;
      max_clients : int;
      counters : (string * int) list;  (** process totals *)
    }
  | Event of M.Trace.event  (** streamed while a subscribed campaign runs *)
  | Failed of string
  | Shutdown_ack

val reason_overloaded : string
val reason_shutting_down : string
val reason_too_many_clients : string

val request_to_line : request -> string
val request_of_line : string -> (request, string) result
val response_to_line : response -> string
val response_of_line : string -> (response, string) result
