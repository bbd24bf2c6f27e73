(** The per-engine cache bundle handed through the execution stack.

    One store pairs a {!Relation_cache} (materialized edge executions,
    consulted by [Rox_joingraph.Runtime.execute_edge]) and an
    {!Estimate_cache} (cut-off sample results, consulted by the
    optimizer's weighing and chain exploration) with the
    {!Rox_storage.Engine} whose documents both describe. Fingerprints are
    scoped by {!Rox_storage.Engine.epoch}, so keys minted before a
    document registration (or an explicit
    {!Rox_storage.Engine.bump_epoch}) can never hit again — invalidation
    is one integer increment; the dead entries age out of the LRU under
    normal insertion pressure.

    A store is deliberately *external* to any single query run: create it
    once next to the engine and pass it to every optimizer invocation to
    get cross-query reuse. Each member cache is one LRU behind one
    mutex, shared by every session on every domain. *)

type t

val create :
  ?relation_budget:int -> ?estimate_budget:int -> Rox_storage.Engine.t -> t
(** Budgets in bytes; both default to 16 MiB. An entry up to the whole
    budget of its member cache is admitted. *)

val of_megabytes : Rox_storage.Engine.t -> int -> t
(** The CLI's [--cache-mb n]: 3/4 of the budget to relations, 1/4 to
    estimates. [n <= 0] yields a store that caches nothing. *)

val engine : t -> Rox_storage.Engine.t
val epoch : t -> int
(** The engine's current epoch — the scope of every key minted now. *)

val relations : t -> Relation_cache.t
val estimates : t -> Estimate_cache.t

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
