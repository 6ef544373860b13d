(** Wire protocol of the [mbpta serve] daemon (see DESIGN.md section 14).

    Newline-delimited JSON over a Unix socket.  A connection carries one
    request line; the daemon answers with zero or more {!Event} lines
    (campaign requests with [events = true] only) followed by exactly one
    final response line, then closes.  Serialization reuses
    {!Repro_mbpta.Trace.Json} — floats cross the wire via [%.17g], so the
    store key derived from a parsed spec is bit-identical to the
    sender's. *)

module M := Repro_mbpta

(** What to measure and how to analyze it — the daemon-side mirror of the
    CLI's analyze flags.  Every field has the CLI's default. *)
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

val default_spec : spec

(** A spec measures with fault injection iff [seu_rate > 0] or a watchdog
    budget is set — the same rule as the CLI. *)
val resilient : spec -> bool

(** The content-addressed store configuration of this spec — the same
    pairs, in the same spelling, as [mbpta analyze], so records warmed by
    either side serve the other. *)
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
