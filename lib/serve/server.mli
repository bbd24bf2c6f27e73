(** The serving front-end: bounded admission and a worker-domain pool
    over one shared read-side engine.

    One server owns:

    - a *bounded admission queue* — {!submit_async} returns [`Rejected]
      instead of queueing when the queue is at capacity, and the protocol
      layer turns that into [ERR busy] (backpressure, never silent
      buffering);
    - a pool of long-lived *worker domains* that pop requests and run one
      fresh {!Rox_core.Session} each over the shared engine and the
      cache store (one mutex per member cache). Every admitted request
      takes one queue slot and executes once, identical requests
      included: a repeat reuses the shared cache's edge joins and
      sampled estimates rather than another request's execution.

    Connection handling is separate from execution: {!serve} accepts on a
    listening socket and runs {!handle_connection} on a thread per
    connection; those threads only parse frames and block in {!await} —
    all query work happens on the worker domains.

    Budget aborts are answers: a worker catching
    [Rox_algebra.Cost.Budget_exceeded] or [Rox_joingraph.Runtime.Blowup]
    completes the request with a structured [ERR deadline] /
    [ERR sampled_rows] / [ERR max_rows] reply — a served request never
    drops the connection the way the one-shot CLI exits with code 2.

    Every request runs under a live telemetry sink that is absorbed into
    the process {!aggregate}, and every submitted request — executed or
    rejected — leaves one flight record through
    {!Rox_telemetry.Recorder.record_request}; slow, errored and
    head-sampled span trees are retained by trace id. Frames are capped
    at {!Protocol.default_max_frame}.

    All shared state ([t]'s queue and audit counters) is guarded by one
    mutex and instrumented through {!Rox_util.Accesslog} when armed, so
    [rox racecheck] covers a served workload. *)

type config = {
  engine : Rox_storage.Engine.t;
  cache : Rox_cache.Store.t option;   (** shared across all workers *)
  workers : int;        (** worker domains; [0] = drive with {!drain_once} *)
  queue_capacity : int; (** admission bound (≥ 1) *)
  max_connections : int;
      (** concurrent-connection cap for {!serve} (≥ 1): admission control
          bounds queued {e queries}, this bounds handler {e threads} — an
          over-limit connection is answered one [ERR busy] frame (outside
          the request/response audit, since it answers the connection
          attempt rather than a parsed frame) and closed *)
  session : Rox_core.Session.config;
      (** base per-request session config; wire-level overrides (seed, τ,
          budgets, client_id) win field-by-field *)
  slow_ms : int option;  (** slow-log latency threshold override (≥ 0) *)
  slow_log : string option;  (** slow-query JSONL path (off when [None]) *)
}

val config :
  ?cache:Rox_cache.Store.t -> ?workers:int -> ?queue_capacity:int ->
  ?max_connections:int -> ?session:Rox_core.Session.config ->
  ?slow_ms:int -> ?slow_log:string -> Rox_storage.Engine.t -> config
(** Defaults: no cache, 2 workers, capacity 64, 256 connections, default
    session config, the recorder's default slow-log threshold, no slow
    log. @raise Invalid_argument when [workers < 0], [queue_capacity < 1]
    or [max_connections < 1]. *)

type t

val create : config -> t
(** Spawns the worker domains and creates the flight recorder
    (@raise Invalid_argument when [slow_ms < 0]). Also ignores
    [SIGPIPE] process-wide (once), so a client that disconnects before
    reading its reply surfaces as [EPIPE] on the write — an ordinary
    connection close — instead of killing the process. *)

type ticket

val submit_async : t -> Protocol.query -> [ `Ticket of ticket | `Rejected ]
(** Admit one request. [`Rejected] when the queue is full or the server
    is shutting down (the caller answers [ERR busy]). An admitted request
    holds one queue slot until a worker takes it. *)

val await : t -> ticket -> Protocol.response
(** Block until the ticket's request completes. *)

val submit : t -> Protocol.query -> Protocol.response
(** {!submit_async} + {!await}; a full queue is [Err (Busy, _)]. *)

val drain_once : t -> bool
(** Synchronously process one queued request on the calling domain;
    [false] if the queue was empty. Lets tests run a [workers = 0] server
    deterministically. *)

val handle_connection : t -> Unix.file_descr -> unit
(** Serve one connection until QUIT, EOF or a corrupt frame; always
    closes [fd]. Every reply answers exactly one parsed frame (corrupt
    framing counts as a parsed frame and is answered [ERR proto]), which
    is what keeps the RX601 request/response audit sound. *)

val serve : t -> Unix.file_descr -> unit
(** Accept loop on a listening socket: one {!handle_connection} thread
    per connection, bounded by [config.max_connections]. Transient accept
    failures never stop the loop — [ECONNABORTED]/[ECONNRESET] retry
    immediately, [EMFILE]/[ENFILE] (and anything else unexpected) log to
    stderr and retry after a short backoff. Returns when the listening fd
    itself dies ([EBADF]/[EINVAL], e.g. closed or shut down by the owner)
    or {!shutdown} ran. *)

val queue_depth : t -> int

val stats_kvs : t -> (string * string) list
(** The STATS reply: process uptime ([uptime_ms], and [started_at] as
    wall-clock epoch seconds), the audit counters, queue depth,
    open/bounced connections ([connections] / [conn_rejected]), worker
    count, the flight recorder's counters ([records], [records_dropped],
    [traces_retained]) and per-tenant request counts as
    [tenant.<client_id>] ({!tenants}). *)

val tenants : t -> (string * int) list
(** Per-tenant submitted-request counts (rejections included), read
    from {!Rox_telemetry.Recorder.tenant_stats}: sorted by client_id,
    at most {!Rox_telemetry.Recorder.tenant_cap} tenants plus
    ["other"]. *)

val audit : t -> Rox_analysis.Serve_check.counts
(** Snapshot the audit counters ({!Rox_analysis.Serve_check.check}
    expects a quiescent snapshot — take it after {!shutdown}). *)

val self_check : t -> Rox_analysis.Diagnostic.t list
(** [Serve_check.check (audit t)]. *)

val metrics : t -> Rox_telemetry.Metrics.t
(** A merged snapshot: the server's own instruments (queue depth,
    admission rejects, queue-wait and serve latency) plus
    the absorbed per-request session registries. *)

val aggregate : t -> Rox_telemetry.Aggregate.t
(** The process aggregate per-request sinks are absorbed into. *)

val recorder : t -> Rox_telemetry.Recorder.t option
(** The flight recorder; always [Some]. The option stays only because
    the regression benchmark under [perfbench/] pattern-matches on it. *)

val metrics_text : t -> string
(** The METRICS reply body: {!metrics} in Prometheus text exposition,
    followed by the recorder's own series (record/drop/retention
    counters, adaptive threshold, per-tenant request/error counters and
    latency histograms with escaped [tenant] labels). *)

val recent_lines : t -> int -> string list
(** The RECENT reply body: up to [n] newest request records as JSONL,
    one compact object per line. *)

val trace_response : t -> int -> Protocol.response
(** The TRACE reply: [Trace_reply] carrying the retained trace exported
    as Chrome trace-event JSON, or [Err (Unknown_id, _)] when the id was
    never retained or already evicted. *)

val shutdown : t -> unit
(** Stop admitting, drain: workers finish every queued request before
    joining ([workers = 0] leftovers are failed as [ERR busy] and counted
    rejected, keeping the RX603 balance). Drained leftovers are still
    flight-recorded (as rejected), and the slow log is flushed and
    closed. Idempotent. *)
