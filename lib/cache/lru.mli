(** Byte-budgeted, weight-aware, sharded LRU — the generic core of the
    cross-query cache.

    Entries carry an explicit weight (their materialized size in bytes);
    the cache holds the most-recently-used entries whose weights sum to at
    most the byte budget, evicting from the cold end. Every lookup and
    insertion updates the hit/miss/eviction/byte counters exposed as a
    {!stats} snapshot, so benchmarks and the CLI can report reuse without
    instrumenting call sites.

    {2 Sharding}

    The key space is split across a power-of-two number of shards, each a
    complete LRU (own mutex, own hashtable, own recency list, own slice of
    the byte budget). A key's shard comes from the {e high} bits of its
    hash — with {!Fingerprint.shard_hash} as the functor's [hash], that is
    the high end of the 2x FNV-1a key digest — so lookups and mutations
    contend only with operations on the same shard. With [shards = 1]
    (the default) behaviour is exactly the classic single-lock LRU. A
    lookup that finds its shard lock busy is counted in [lock_waits] and
    then blocks.

    When the {!Rox_util.Accesslog} is armed at construction time, every
    locked operation records one access-log Write under the owning
    shard's registered lock, so the RX5xx race detector sees each shard
    as a mutex-guarded shared site; disarmed, the instrumentation is one
    boolean test per operation. *)

type stats = {
  hits : int;            (** lookups answered from the cache *)
  misses : int;          (** lookups that found nothing *)
  insertions : int;      (** entries admitted (including replacements) *)
  evictions : int;       (** entries pushed out by the byte budget *)
  rejected : int;        (** entries larger than their shard's budget, never admitted *)
  entries : int;         (** currently resident entries *)
  bytes : int;           (** currently resident weight total *)
  budget : int;          (** the configured byte budget (all shards) *)
  lock_waits : int;      (** lookups that found their shard lock busy *)
  fast_hits : int;       (** always 0: kept so existing readers of the record compile *)
}

val stats_to_string : stats -> string
(** One-line rendering: hits/misses/hit-rate, evictions, bytes/budget,
    contention counter. *)

module type S = sig
  type key
  type 'v t

  val create :
    name:string ->
    ?shards:int ->
    ?rebalance_every:int ->
    budget:int ->
    unit ->
    'v t
  (** A cache holding at most [budget] bytes of entry weight, split
      evenly across [shards] (a power of two, default 1). A non-positive
      budget admits nothing, which is how "cache off" is spelled. [name]
      labels each shard's site and lock in RX5xx race-detector reports
      (["name.shardN"] when [shards > 1]). Budgets are rebalanced across
      shards by insertion demand every [rebalance_every] insertions ([0]
      disables rebalancing).
      @raise Invalid_argument when [shards] is not a power of two. *)

  val find : 'v t -> key -> 'v option
  (** Counted lookup under the shard lock; a hit refreshes the entry's
      recency. A lookup that finds the lock busy counts one [lock_waits]
      and then blocks. *)

  val mem : 'v t -> key -> bool
  (** Uncounted, recency-neutral membership probe (tests, introspection). *)

  val add : 'v t -> key -> weight:int -> 'v -> unit
  (** Insert or replace, then evict the coldest entries until the shard's
      weight total fits its budget again. Entries heavier than
      the whole shard budget are rejected (counted, not stored).
      @raise Invalid_argument when [weight] is negative. *)

  val remove : 'v t -> key -> unit
  val clear : 'v t -> unit
  (** Drop all entries. Counters other than [entries]/[bytes] persist. *)

  val stats : 'v t -> stats
  (** Summed across shards, one shard lock at a time (no global lock):
      a consistent-enough view of monotonic counters, not an atomic
      snapshot. [budget] reports the configured total. *)

  val shard_count : 'v t -> int
  val shard_of : 'v t -> key -> int
  (** Which shard holds [key] — the addressing function under test. *)

  val shard_stats : 'v t -> stats array
  (** Per-shard snapshots (each shard's own slice of the budget). *)

  val iter_coldest_first : 'v t -> (key -> 'v -> unit) -> unit
  (** Entries in eviction order within each shard (least recently used
      first), shard 0 first — the observable the eviction-order property
      tests pin down. With [shards = 1] this is exactly the classic
      global eviction order. *)
end

module Make (K : Hashtbl.HashedType) : S with type key = K.t
