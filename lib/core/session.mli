(** Per-query session context: the one value that owns everything a query
    run may read or mutate.

    A session bundles the optimizer options, a seeded deterministic RNG,
    the telemetry sink, the cost counter, the sanitize mode, the cross-query
    cache handle and the resource budgets. Every layer receives the
    session (or a narrow capability derived from it) explicitly — no
    process-global mutable state is consulted during a run, which is what
    makes one {!Rox_storage.Engine.t} plus one {!Rox_cache.Store.t}
    safely shareable by concurrent sessions on OCaml 5 domains (the
    serve suite's multi-domain replay checks it). Every operator takes
    the sanitize mode as a required argument, so no operator can run
    under a mode its session did not hand it. *)

type budgets = {
  max_rows : int;
      (** materialization guard per component
          ({!Rox_joingraph.Runtime.Blowup}) *)
  deadline_ms : int option;
      (** wall-clock budget for one armed run; exceeded ⇒
          {!Rox_algebra.Cost.Budget_exceeded} with reason [Deadline]
          (spent/budget in milliseconds) *)
  max_sampled_rows : int option;
      (** cap on total sampling-bucket work; exceeded ⇒
          {!Rox_algebra.Cost.Budget_exceeded} with reason [Sampled_rows] *)
}

val default_budgets : budgets
(** 50M-row guard, no deadline, unlimited sampling. *)

type config = {
  seed : int;                    (** RNG seed (default 42) *)
  tau : int;                     (** sample size τ (default 100) *)
  use_chain : bool;              (** chain sampling vs greedy (ablation) *)
  resample : bool;               (** refresh weights after execution *)
  table_fraction : float option; (** approximate mode (Section 6) *)
  sanitize : bool;               (** operator-contract checking mode *)
  budgets : budgets;
  client_id : string;
      (** tenant tag (default ["local"]): surfaced per request by the
          serving front-end, threaded into the query span's attributes and
          the server's per-tenant accounting *)
}

val default_config : unit -> config
(** Paper defaults; [sanitize] is {!Rox_algebra.Sanitize.env_default}
    (the [ROX_SANITIZE] environment variable, read once at start). *)

type t

val create :
  ?config:config -> ?cache:Rox_cache.Store.t -> ?telemetry:Rox_telemetry.Sink.t ->
  unit -> t
(** A fresh session: new RNG seeded from [config.seed], new cost counter
    (with the sampled-rows budget installed), and a null telemetry sink
    unless one is passed. Sessions are single-domain values
    — share the engine and the cache across domains, never a session or
    its sink; totals cross domains as merged {!Rox_telemetry.Metrics.t}
    registries. *)

val config : t -> config
val seed : t -> int
val tau : t -> int
val sanitize : t -> bool
val budgets : t -> budgets

val client_id : t -> string
(** The session's tenant tag ([config.client_id]). *)

val rng : t -> Rox_util.Xoshiro.t
val counter : t -> Rox_algebra.Cost.counter
val cache : t -> Rox_cache.Store.t option

val telemetry : t -> Rox_telemetry.Sink.t
(** The session's telemetry sink (null unless one was passed to
    {!create}); spans, the optimizer's events and metrics land here
    across the whole run. *)

val metrics : t -> Rox_telemetry.Metrics.t
(** [Rox_telemetry.Sink.metrics (telemetry t)]. *)

val sampling_meter : t -> Rox_algebra.Cost.meter
val execution_meter : t -> Rox_algebra.Cost.meter

val arm : t -> unit
(** Start the wall clock: the deadline becomes [now + deadline_ms].
    {!confine} arms automatically; call directly only in tests. *)

val disarm : t -> unit

val check_deadline : t -> unit
(** @raise Rox_algebra.Cost.Budget_exceeded with reason [Deadline] when
    the armed deadline has passed. No-op when unarmed or no deadline is
    configured. Runs call this at every edge execution and chain round —
    the deadline is a cooperative cancellation point, not preemption. *)

val confine : t -> (unit -> 'a) -> 'a
(** [confine t f] runs [f] as one armed session run: the deadline clock
    starts for its extent. The first entry claims the session for the
    calling domain, whichever domain created it.
    @raise Rox_algebra.Sanitize.Violation with contract [Owner_domain]
    (RX504) when the session's sanitize mode is on and the session was
    already claimed by another domain. *)

val table_sampler : t -> (int -> Rox_util.Column.t -> Rox_util.Column.t) option
(** The approximate-mode table sampler implied by [table_fraction]: a
    fresh isolated RNG stream per call (seeded [seed lxor 0x5eed]), so
    approximate-mode draws never perturb optimizer sampling. *)

val runtime_config : t -> Rox_joingraph.Runtime.config
(** The narrow capability handed to {!Rox_joingraph.Runtime.create}:
    max_rows, sanitize mode, cache handle and table sampler — everything
    the join-graph layer is allowed to see of the session. *)

val flight_record :
  t -> Rox_telemetry.Recorder.t -> query:string -> plan:int list ->
  latency_ns:int -> status:string -> Rox_telemetry.Recorder.record
(** The one-shot CLI's flight-recorder hook ([rox run] / [rox profile]):
    hand the finished session — its tenant tag, deterministic spend and
    sink — to {!Rox_telemetry.Recorder.record_request} under a fresh
    trace id, the same builder the serving front-end uses, so CLI and
    served slow-log lines reconcile. *)

val describe : t -> string
(** One-line rendering of the full session configuration (the [analyze]
    CLI prints it). *)
