(** The cross-query cache: the per-engine bundle handed through the
    execution stack, and the one lookup every cached operation goes
    through.

    A store holds two byte-budgeted {!Lru} caches next to the
    {!Rox_storage.Engine} whose documents both describe:
    - [cache.relations]: fully materialized edge executions — the pair
      columns a staircase or value join produced for one edge against
      concrete endpoint tables, consulted by
      [Rox_joingraph.Runtime.execute_edge];
    - [cache.estimates]: cut-off sampled executions — the whole
      {!Rox_algebra.Cutoff.t} (estimate, sampled output, consumed
      fraction), consulted by the optimizer's weighing and chain
      exploration.

    Both operations are pure functions of their inputs, so {!memo} can
    replay a result for *any* query that repeats the same request on the
    same engine. Keys are {!Fingerprint.t}s naming the document ids and
    the contents of the input node sets; registered documents never
    change ({!Rox_storage.Engine.register} only appends), so a key stays
    valid for the engine's lifetime and nothing needs invalidating.

    A store is deliberately *external* to any single query run: create it
    once next to the engine and pass it to every optimizer invocation to
    get cross-query reuse. Each member cache is one LRU behind one mutex,
    shared by every session on every domain. Cached values are shared,
    never copied: consumers must treat them as immutable. *)

type t

type pairs = { left : Rox_util.Column.t; right : Rox_util.Column.t }
(** A cached edge execution: the two parallel pair columns in (v1-node,
    v2-node) orientation. *)

type _ kind =
  | Relation : pairs kind           (** [cache.relations] *)
  | Estimate : Rox_algebra.Cutoff.t kind  (** [cache.estimates] *)

val create :
  ?relation_budget:int -> ?estimate_budget:int -> Rox_storage.Engine.t -> t
(** Budgets in bytes; both default to 16 MiB. An entry up to the whole
    budget of its member cache is admitted. *)

val of_megabytes : Rox_storage.Engine.t -> int -> t
(** The CLI's [--cache-mb n]: 3/4 of the budget to relations, 1/4 to
    estimates. [n <= 0] yields a store that caches nothing. *)

val engine : t -> Rox_storage.Engine.t

val weight : 'v kind -> 'v -> int
(** The bytes an entry is charged: for pairs, the underlying column
    storage (shared storage counted once) plus 128; for estimates, 8 per
    sampled output node plus 160. *)

val memo :
  t option ->
  'v kind ->
  sanitize:bool ->
  telemetry:Rox_telemetry.Sink.t ->
  edge:int ->
  key:(unit -> Fingerprint.t) ->
  run:(charged:bool -> 'v) ->
  'v
(** [memo store kind ~sanitize ~telemetry ~edge ~key ~run] is the one
    cache lookup. Without a store it is [run ~charged:true] ([key] is
    never computed). With one it looks up [key ()] in the [kind]'s
    cache, counts the hit or miss in the sink's metrics and emits one
    [Sink.Cache_lookup] event for [edge]. A miss runs
    [run ~charged:true], adds the result under its {!weight} and returns
    it. A hit returns the cached value; under
    [sanitize] it first re-runs [run ~charged:false] and checks the two
    with {!verify_replay}. [run ~charged:false] must charge no meter. *)

val verify_replay : 'v kind -> op:string -> what:string -> replayed:'v -> fresh:'v -> unit
(** The sanitizer's replay check (RX304), shared by every memo that
    replays a ['v] instead of running it: raises a [Cache_consistent]
    violation naming [op] and [what] unless [replayed] equals [fresh]
    ({!Rox_algebra.Cutoff.equal} for estimates, element-wise on both
    columns for pairs). *)

type stats = {
  relations : Lru.stats;
  estimates : Lru.stats;
}

val stats : t -> stats
val stats_to_string : stats -> string

val observe_into : t -> Rox_telemetry.Metrics.t -> unit
(** Record the store's current residency (relation + estimate bytes)
    into the registry's [cache_resident_bytes] gauge, and the accumulated
    lock contention of both caches into [cache_lock_waits]. Call at
    export time — gauges are point-in-time observations, not counters. *)

val clear : t -> unit
