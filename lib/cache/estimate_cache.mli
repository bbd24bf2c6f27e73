(** Cross-query cache of cut-off sampled executions.

    ROX re-derives edge weights and chain segments by sampled execution
    again and again — across chain rounds, after every re-weighing, and
    from scratch for every query. The sampled operator
    [Rox_joingraph.Exec.sampled] is a pure function of (edge shape, outer
    sample, inner table, cut-off limit), so its {!Rox_algebra.Cutoff.t}
    result — estimate, sampled output, consumed fraction — can be replayed
    from cache whenever the same request recurs on the same engine epoch.

    The cached [out] array must be treated as immutable by consumers. *)

type t

val create :
  ?shards:int ->
  ?rebalance_every:int ->
  budget:int ->
  unit ->
  t

val find : t -> Fingerprint.t -> Rox_algebra.Cutoff.t option
val add : t -> Fingerprint.t -> Rox_algebra.Cutoff.t -> unit

val weight : Rox_algebra.Cutoff.t -> int
val stats : t -> Lru.stats
val shard_stats : t -> Lru.stats array
val clear : t -> unit
