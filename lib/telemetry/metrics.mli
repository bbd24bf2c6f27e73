(** Typed metrics registry: counters, gauges, and log-scale histograms.

    One registry per {!Sink} (and hence per [Rox_core.Session]): a fixed,
    statically-known set of instruments covering the paper-relevant run
    signals — edge-execution latency, chain-round sampling cost, cache
    hit counts, rows materialized, queries served. A fixed shape (rather
    than registration-by-name) keeps increments allocation-free, makes
    {!add_into} a structural merge, and means the server's registry
    never absorbs an instrument it does not know.

    Histograms are log₂-scale: bucket [i] counts observations in
    [[2^i, 2^(i+1))] (bucket 0 also absorbs values ≤ 1). Durations are
    observed in nanoseconds, so the 62 buckets span sub-ns to ~146 years
    with ~2x relative error — the right trade for latency profiles. *)

type counter = private {
  c_name : string;
  c_help : string;
  mutable c_value : int;
}

type gauge = private {
  g_name : string;
  g_help : string;
  mutable g_value : float;
}

(** A counter family with one label: one count per label value, the
    values fixed when the instrument is created (Prometheus exports one
    series per value). *)
type labelled = private {
  l_name : string;
  l_help : string;
  l_key : string;             (** the label's name, e.g. ["trigger"] *)
  l_values : string array;    (** the label's values, in export order *)
  l_counts : int array;       (** one count per value, aligned with [l_values] *)
}

(** Why one chain-sampling decision (Algorithm 2) ended: a segment
    dominated every other (line 26), no segment could be extended (line
    34), the chain's own sampled work reached the cheapest segment's
    estimated cost, or the minimum-weight edge had no branching endpoint
    and ran without a chain. *)
type chain_trigger = [ `Stopping_condition | `Exhausted | `Cannot_pay | `Single_edge ]

val chain_trigger_label : chain_trigger -> string
(** ["stopping_condition"], ["exhausted"], ["cannot_pay"], ["single_edge"]:
    the values of {!t.chain_stops} and the trace's [trigger] attribute. *)

val n_buckets : int
(** 62: bucket [i] covers [[2^i, 2^(i+1))]. *)

type histogram = private {
  h_name : string;
  h_help : string;
  mutable h_count : int;
  mutable h_sum : int;
  h_buckets : int array;  (** length {!n_buckets} *)
}

(** The registry. Field names are the API — instrumentation sites update
    fields directly through {!incr}/{!set}/{!observe}. *)
type t = {
  compile_ns : histogram;        (** XQuery→Join-Graph compile latency *)
  query_ns : histogram;          (** whole optimized run latency *)
  edge_execution_ns : histogram; (** per-edge full execution latency *)
  chain_round_ns : histogram;    (** per chain-sampling round latency *)
  sampled_run_ns : histogram;    (** per cut-off sampled execution latency *)
  sampling_time_ns : counter;    (** total wall-clock in sampled runs *)
  execution_time_ns : counter;   (** total wall-clock in edge executions *)
  relation_cache_hits : counter;
  relation_cache_misses : counter;
  estimate_cache_hits : counter;
  estimate_cache_misses : counter;
  sampled_replays : counter;     (** cut-off sampled runs replayed within a query *)
  rows_materialized : counter;   (** component rows produced by edge exec *)
  pairs_emitted : counter;       (** join pairs produced by edge exec *)
  edges_executed : counter;
  chain_rounds : counter;
  chain_stops : labelled;        (** chain decisions per {!chain_trigger} *)
  queries_served : counter;
  budget_aborts : counter;       (** runs ended by [Cost.Budget_exceeded] *)
  spans_dropped : counter;       (** spans and events lost to the sink's buffer cap *)
  requests_received : counter;   (** protocol frames parsed by [rox serve] *)
  responses_sent : counter;      (** protocol replies written by [rox serve] *)
  admission_rejects : counter;   (** requests bounced off a full queue *)
  queue_wait_ns : histogram;     (** admission-queue residence per request *)
  serve_ns : histogram;          (** whole served-request latency *)
  cache_resident_bytes : gauge;  (** last observed [Rox_cache] residency *)
  cache_lock_waits : gauge;      (** last observed cache-lock contention total *)
  queue_depth : gauge;           (** requests waiting in the admission queue *)
}

val create : unit -> t

val histogram : string -> string -> histogram
(** [histogram name help] is a standalone instrument outside any
    registry — the flight recorder's adaptive-threshold histogram and
    per-tenant latency series are built from these. A standalone
    histogram never participates in {!add_into}, which only merges the
    fixed registry shape. *)

val incr : ?by:int -> counter -> unit
val set : gauge -> float -> unit

val incr_label : ?by:int -> labelled -> string -> unit
(** [incr_label l value] adds to [value]'s count; no allocation.
    @raise Invalid_argument when [value] is not one of [l]'s values. *)

val observe : histogram -> int -> unit
(** [observe h v] records one observation of [v] (values ≤ 0 land in
    bucket 0 and contribute 0 to the sum). *)

val bucket_of : int -> int
(** The bucket index a value lands in (exposed for tests). *)

val bucket_upper : int -> int
(** Inclusive upper bound of bucket [i]: [2^(i+1) - 1]; the last bucket
    is unbounded ([max_int]). *)

val quantile : histogram -> float -> float
(** [quantile h q] approximates the [q]-quantile (0 < q ≤ 1) by locating
    the bucket holding the target rank and log-interpolating within it:
    bucket [i ≥ 1] covers [[2^i, 2^(i+1))], so the answer is
    [2^(i + frac)] with [frac] the fraction of the bucket's population
    below the rank. Bucket 0 (values ≤ 1) always reports 1. Exact at
    bucket boundaries ([frac = 1] lands on the next power of two), and —
    unlike the upper-edge rule it replaces — unbiased in expectation for
    log-uniform populations. 0 for an empty histogram. *)

val counters : t -> counter list
val labelled_counters : t -> labelled list
val gauges : t -> gauge list
val histograms : t -> histogram list
(** Stable enumeration order — exporters and {!add_into} rely on the two
    lists of a pair of registries being positionally aligned. *)

val add_into : into:t -> t -> unit
(** Merge [t] into [into]: counters (labelled ones per value) and
    histograms add, gauges take the max. The multi-domain server builds
    its one ledger from this: each request's session registry is merged
    into the server's own registry under the server's mutex
    ([Rox_serve.Server.metrics]).

    The counter-vs-gauge rule. A *counter* measures work this registry's
    owner performed itself (requests served, rows materialized, spans
    dropped): each session's contribution is disjoint, so merging adds,
    and absorbing the same registry twice genuinely double-counts — call
    sites must merge a registry into a given target at most once per
    measurement interval. A *gauge* is a last-observed snapshot of shared
    state (cache residency, cache lock waits, queue depth): many sessions
    observe the *same* store, so adding would multiply one store's
    residency by the number of observers. Merging therefore takes
    [Float.max] — idempotent, so absorbing the same store's snapshot
    twice yields the observation, not the sum. Pick the instrument by
    ownership: owned work → counter (additive), shared-state snapshot →
    gauge (max). *)
