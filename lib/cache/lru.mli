(** Byte-budgeted, weight-aware LRU — the generic core of the
    cross-query cache.

    Entries carry an explicit weight (their materialized size in bytes);
    the cache holds the most-recently-used entries whose weights sum to at
    most the byte budget, evicting from the cold end. Every lookup and
    insertion updates the hit/miss/eviction/byte counters exposed as a
    {!stats} snapshot, so benchmarks and the CLI can report reuse without
    instrumenting call sites.

    The hashtable, the recency list and the counters live in one
    {!Rox_util.Guarded.t}, so every operation runs under the cache's one
    lock and nothing else can reach them. A lookup that finds the lock
    busy is counted in [lock_waits] and then blocks. *)

type stats = {
  hits : int;            (** lookups answered from the cache *)
  misses : int;          (** lookups that found nothing *)
  insertions : int;      (** entries admitted (including replacements) *)
  evictions : int;       (** entries pushed out by the byte budget *)
  rejected : int;        (** entries larger than the budget, never admitted *)
  entries : int;         (** currently resident entries *)
  bytes : int;           (** currently resident weight total *)
  budget : int;          (** the configured byte budget *)
  lock_waits : int;      (** lookups that found the lock busy *)
  fast_hits : int;       (** always 0: kept so existing readers of the record compile *)
}

val stats_to_string : stats -> string
(** One-line rendering: hits/misses/hit-rate, evictions, bytes/budget,
    contention counter. *)

module type S = sig
  type key
  type 'v t

  val create : budget:int -> unit -> 'v t
  (** A cache holding at most [budget] bytes of entry weight. A
      non-positive budget admits nothing, which is how "cache off" is
      spelled. *)

  val find : 'v t -> key -> 'v option
  (** Counted lookup under the lock; a hit refreshes the entry's
      recency. A lookup that finds the lock busy counts one [lock_waits]
      and then blocks. *)

  val mem : 'v t -> key -> bool
  (** Uncounted, recency-neutral membership probe (tests, introspection). *)

  val add : 'v t -> key -> weight:int -> 'v -> unit
  (** Insert or replace, then evict the coldest entries until the weight
      total fits the budget again. Entries heavier than the whole budget
      are rejected (counted, not stored).
      @raise Invalid_argument when [weight] is negative. *)

  val remove : 'v t -> key -> unit
  val clear : 'v t -> unit
  (** Drop all entries. Counters other than [entries]/[bytes] persist. *)

  val stats : 'v t -> stats
  (** A snapshot of the counters, taken under the lock. *)

  val iter_coldest_first : 'v t -> (key -> 'v -> unit) -> unit
  (** Entries in eviction order (least recently used first) — the
      observable the eviction-order property tests pin down. *)
end

module Make (K : Hashtbl.HashedType) : S with type key = K.t
