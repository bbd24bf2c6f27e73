(** The flight recorder: always-on, bounded request accounting for a
    live process.

    Every finished request enters through one function,
    {!record_request}, which builds its {!record} and feeds three layers,
    all bounded by the fixed policy below so they can stay armed in
    production, and all in one {!Rox_util.Guarded.t}:

    - {b Request records.} Every completed request — executed or
      rejected at admission — appends one {!record} to one process-wide
      ring of {!cap} records. A full ring overwrites the oldest record
      and the overwrite is counted, like [Sink]'s span cap.
    - {b Tail-sampled traces.} A request's span tree is retained when
      its latency cleared an adaptive threshold (the 0.95 quantile of the
      recorder's own latency histogram, never below {!floor_ns}, armed
      after {!warmup} samples), it errored, or it was
      1-in-{!head_every} head-sampled by trace id. Retained traces are
      addressable by trace id until FIFO-evicted past {!retain_cap}.
    - {b Tenant series.} Per-tenant request/error counters and a serve
      latency histogram, bounded to the first {!tenant_cap} distinct
      tenants plus an ["other"] overflow bucket — a tenant flood cannot
      grow the registry. (A tenant literally named ["other"] shares the
      overflow bucket.)

    When built with [?slow_log], {!record_request} also appends one
    structured JSONL line (via [Rox_util.Minijson]) for every record that
    errored or ran at least [slow_ms] milliseconds, after retention is
    settled. The line is formatted outside the lock and written and
    flushed inside it. A write that fails closes the log with one stderr
    line; recording, retention and the caller carry on. *)

(** {2 The policy} *)

val cap : int
(** Ring capacity, all domains together: 256. *)

val retain_cap : int
(** Retained-trace bound: 64. *)

val head_every : int
(** Head-sample 1-in-N by trace id: 128. *)

val floor_ns : int
(** Threshold floor: 1 ms. *)

val warmup : int
(** Served latencies before the quantile arms: 32. *)

val tenant_cap : int
(** Distinct tenant series before ["other"]: 8. *)

type outcome = Executed | Rejected

val outcome_label : outcome -> string

type reason = Slow | Errored | Head_sampled

val reason_label : reason -> string

type record = {
  trace_id : int;        (** monotonic, process-wide, from {!next_trace_id} *)
  fingerprint : string;  (** first 12 hex digits of the MD5 of the query text *)
  tenant : string;       (** the request's [client_id] *)
  plan_digest : string;  (** {!plan_digest} of the chosen join order *)
  plan_edges : int;      (** edges in the executed plan *)
  latency_ns : int;      (** wall latency, queue wait included *)
  queue_ns : int;        (** admission-queue residence *)
  sampling_units : int;  (** deterministic sampling work spent *)
  execution_units : int; (** deterministic execution work spent *)
  cache_hits : int;      (** relation + estimate cache hits *)
  cache_misses : int;
  outcome : outcome;
  status : string;       (** ["ok"] or a protocol ERR kind label *)
  edge_ns : (int * int) list;  (** per-edge (id, wall ns) timings *)
}

type t

val create : ?slow_ms:int -> ?slow_log:string -> unit -> t
(** [slow_ms] (default 100) is the slow-log latency threshold;
    [slow_log] is the JSONL path (omit for no slow log).
    @raise Invalid_argument when [slow_ms < 0].
    @raise Sys_error when [slow_log] cannot be opened for writing. *)

val next_trace_id : t -> int
(** Monotonic id assignment ([Atomic.fetch_and_add]); ids start at 1. *)

(** What an executed request hands the recorder beyond its outcome. *)
type run = {
  sink : Sink.t;  (** cache hit/miss counters, per-edge spans, the tree to retain *)
  plan : int list;       (** the executed join order *)
  sampling_units : int;  (** deterministic spend, read even after an abort *)
  execution_units : int;
}

val record_request :
  t -> trace_id:int -> query:string -> tenant:string -> outcome:outcome ->
  status:string -> latency_ns:int -> queue_ns:int -> run option -> record
(** The one way a request enters the recorder. Builds its record — the
    fingerprint is the first 12 hex digits of the MD5 of [query]; cache
    hits and misses are the relation + estimate cache counters of the
    run's sink; per-edge timings come from its ["execute_edge"] spans —
    then {!observe}s it, {!retain}s a snapshot of the run's sink when
    the recorder says so, and writes the slow-log line when armed, whose
    ["retained"] field names the reason only when a trace was actually
    kept. A request without a [run] (rejected, or out of deadline in
    the queue) keeps no trace. *)

val observe : t -> record -> reason option
(** {!record_request}'s decision step, exposed for tests: append to the
    ring, fold the latency into the adaptive threshold, update the
    tenant series, and say whether the request's span tree should be
    retained. The decision uses the threshold as it stood {e before}
    this record, so a spike cannot raise the bar for itself; rejected
    records never count as slow (their latency is the rejection, not
    service). *)

val retain : t -> record -> reason -> Sink.snapshot -> unit
(** {!record_request}'s retention step, exposed for tests: make the
    request's spans and optimizer events addressable by
    [record.trace_id]. They are kept typed and rendered only when read
    ({!traces}, or [Sink.snapshot_timeline] on a {!find_trace} result).
    The oldest retained trace is evicted past {!retain_cap};
    re-retaining an id is a no-op. *)

val find_trace : t -> int -> (record * reason * Sink.snapshot) option

val recent : t -> int -> record list
(** The [n] most recent records still in the ring, newest first by
    trace id (assignment order, which is admission order; records are
    appended in completion order). *)

val records : t -> int
(** Total records ever observed (survivors and overwritten). *)

val dropped : t -> int
(** Records overwritten by ring wraparound. *)

val retained_count : t -> int

val traces : t -> (int * record * reason * Sink.span list) list
(** Every currently retained trace as its timeline (diagnostics /
    RX702). *)

val threshold_ns : t -> int
(** The adaptive threshold the next {!observe} will judge against: the
    {!floor_ns} until {!warmup} served latencies, then the 0.95 quantile
    of the recorder's latency histogram, never below {!floor_ns}. *)

type tenant_stat = {
  tenant : string;
  requests : int;
  errors : int;
  serve_ns : Metrics.histogram;
}

val tenant_stats : t -> tenant_stat list
(** Every tenant series, sorted by tenant. The counters are a snapshot;
    [serve_ns] is the live histogram. A tenant's [requests] counts every
    observed record, rejections included. *)

val tenant_count : t -> int

val log_lines : t -> int
(** Slow-log lines written so far (0 when no log is armed; a failed
    write is not counted). *)

val close : t -> unit
(** Flush and close the slow log; further observations still record but
    no longer log. Idempotent. *)

val plan_digest : int list -> string
(** Stable 12-hex-char digest of a chosen edge order (["-"] for none). *)

val prometheus : t -> string
(** Text-exposition series owned by the recorder: record/drop/retention
    counters, the adaptive threshold, and the per-tenant series (label
    values escaped via [Export.escape_label]). *)

val json_of_record : ?reason:reason -> record -> Rox_util.Minijson.t
(** The slow-log line's JSON object (exposed for the RECENT verb and
    tests). *)
