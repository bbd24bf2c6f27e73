(** The flight recorder: always-on, bounded request accounting for a
    live process.

    Three layers, all bounded so they can stay armed in production, and
    all behind one mutex:

    - {b Request records.} Every completed request — executed or
      rejected at admission — appends one
      {!record} to one process-wide ring. A full ring overwrites the
      oldest record and the overwrite is counted, like [Sink]'s span
      cap.
    - {b Tail-sampled traces.} {!observe} returns a retention {!reason}
      when the request's full span tree is worth keeping: its latency
      cleared an adaptive threshold (the {!create}[ ~quantile] of the
      recorder's own latency histogram, never below [floor_ns], armed
      after [warmup] samples), it errored, or it was 1-in-[head_every]
      head-sampled by trace id. The caller then hands the spans to
      {!retain}; retained traces are addressable by trace id until
      FIFO-evicted at [retain_cap].
    - {b Tenant series.} Per-tenant request/error counters and a serve
      latency histogram, bounded to the first [tenant_cap] distinct
      tenants plus an ["other"] overflow bucket — a tenant flood cannot
      grow the registry. (A tenant literally named ["other"] shares the
      overflow bucket.)

    When built with [?slow_log], {!observe} also appends one structured
    JSONL line (via [Rox_util.Minijson]) for every record that errored
    or ran at least [slow_ms] milliseconds. The line is formatted outside
    the mutex and written and flushed inside it. *)

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

val create :
  ?cap:int ->          (* ring capacity, all domains together (256) *)
  ?retain_cap:int ->   (* retained-trace bound (64) *)
  ?head_every:int ->   (* head-sample 1-in-N by trace id (128; 0 = off) *)
  ?quantile:float ->   (* adaptive-threshold quantile (0.95) *)
  ?floor_ns:int ->     (* threshold floor (1ms) *)
  ?warmup:int ->       (* samples before the quantile arms (32) *)
  ?tenant_cap:int ->   (* distinct tenant series before "other" (8) *)
  ?slow_ms:int ->      (* slow-log latency threshold (100) *)
  ?slow_log:string ->  (* JSONL path; omit for no slow log *)
  unit -> t

val next_trace_id : t -> int
(** Monotonic id assignment ([Atomic.fetch_and_add]); ids start at 1. *)

val observe : t -> record -> reason option
(** Append to the ring, fold the latency into the adaptive threshold, update the tenant series, write the slow-log
    line if armed — and say whether the caller should {!retain} the
    request's span tree. The retention decision uses the threshold as it
    stood {e before} this record, so a spike cannot raise the bar for
    itself; rejected records never count as slow (their latency is the
    rejection, not service). *)

val retain : t -> record -> reason -> Sink.span list -> unit
(** Make the span tree addressable by [record.trace_id] (chronological
    order, as [Sink.spans_chronological] returns). Oldest retained trace
    is evicted past [retain_cap]; re-retaining an id is a no-op. *)

val find_trace : t -> int -> (record * reason * Sink.span list) option

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
(** Every currently retained trace (diagnostics / RX702). *)

val threshold_ns : t -> int
(** The adaptive threshold the next {!observe} will judge against: the
    [floor_ns] until [warmup] served latencies, then the [quantile] of
    the recorder's latency histogram, never below [floor_ns]. *)

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
val tenant_cap : t -> int

val log_lines : t -> int
(** Slow-log lines written so far (0 when no log is armed). *)

val close : t -> unit
(** Flush and close the slow log; further observations still record but
    no longer log. Idempotent. *)

val plan_digest : int list -> string
(** Stable 12-hex-char digest of a chosen edge order (["-"] for none). *)

val edge_timings_of_spans : Sink.span list -> (int * int) list
(** Per-edge (id, wall ns) pairs from ["execute_edge"] spans' [("edge",
    id)] attributes — the slow-log's per-edge breakdown. *)

val prometheus : t -> string
(** Text-exposition series owned by the recorder: record/drop/retention
    counters, the adaptive threshold, and the per-tenant series (label
    values escaped via [Export.escape_label]). *)

val json_of_record : ?reason:reason -> record -> Rox_util.Minijson.t
(** The slow-log line's JSON object (exposed for the RECENT verb and
    tests). *)
