(** The long-running campaign daemon behind [mbpta serve].

    One server owns a Unix-domain listening socket, a content-addressed
    measurement store root and the process's domain pool.  Each accepted
    connection carries one {!Serve_protocol.request} line; the daemon
    answers with optional streamed {!Serve_protocol.Event} lines followed
    by exactly one final response line, then closes the connection.

    {b Deduplication and coalescing.}  Campaign requests are keyed by
    their store key (a pure function of the measured configuration).  A
    request whose key matches an in-flight or queued job joins that job's
    waiter list — one computation, every waiter handed the same report
    bytes.  Because the report is a pure function of the spec and the
    store replays recorded chunks exactly, responses are bit-identical
    whether served cold, warm (record already complete:
    [cache.runs_simulated = 0] in the response counters) or coalesced.

    {b Admission control.}  At most one campaign computes at a time (the
    domain pool is never oversubscribed); at most [max_queue] further
    jobs may wait; beyond that the daemon answers a typed
    [Rejected {reason = reason_overloaded}] immediately instead of
    queueing invisibly.  Connections beyond [max_clients] are likewise
    rejected with [reason_too_many_clients].

    {b Analysis memo.}  Warm [pwcet]/[iid] queries fit each (record,
    analysis options) pair once: the daemon keeps the fitted tail model,
    block size and i.i.d. verdict (or the analysis failure), never the
    sample, pinned to the record's [stat] stamp (device, inode, size,
    mtime), and answers later queries from it without opening the store —
    bit-identical to a fresh fit.  A rewritten record is refitted; a record
    whose mtime is younger than one timestamp tick is never memoized.  The
    capacity is a fixed 256 entries, least recently used evicted first;
    [serve.analysis_memo_hits]/[serve.analysis_memo_misses] count it.

    {b Shutdown.}  The daemon drains on the process-wide {!Repro_mbpta.Shutdown}
    flag (SIGINT/SIGTERM once [Shutdown.install]ed, a client [Shutdown]
    request, or {!stop}): the in-flight campaign checkpoints at its next
    chunk barrier, queued jobs are rejected with [reason_shutting_down],
    connection handlers are joined and the socket file removed. *)

module M := Repro_mbpta

type config = {
  socket_path : string;
  store_dir : string;  (** store root; created if missing *)
  jobs : int;  (** domain-pool width for cold campaigns *)
  max_queue : int;  (** queued cold campaigns beyond the one in flight *)
  max_clients : int;  (** concurrent connections *)
  trace : M.Trace.t option;
      (** daemon-lifetime trace; its counter registry is the process-total
          parent of every per-request registry *)
}

type t

(** [start cfg] — bind, spawn the accept/dispatch/monitor threads and
    return immediately.  Detects and removes a stale socket file left by
    a crashed daemon (a probe connection distinguishes it from a live
    one).  [on_job_start] is a test hook invoked with the job's store key
    just before its campaign computes.  Raises [Invalid_argument] on a
    non-positive [jobs]/[max_clients] or negative [max_queue]. *)
val start : ?on_job_start:(string -> unit) -> config -> (t, string) result

(** Block until the daemon has fully drained (see shutdown above). *)
val wait : t -> unit

(** Request shutdown via the {!M.Shutdown} flag, {!wait}, then reset the
    flag so the process can start another server (tests do). *)
val stop : t -> unit

(** The process-total counter registry ([serve.*] plus every request's
    rolled-up measurement counters). *)
val counters : t -> M.Trace.Counters.t
