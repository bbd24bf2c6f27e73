module L = Lru.Make (struct
  type t = string

  let equal = String.equal
  let hash = Fingerprint.shard_hash
end)

type t = Rox_algebra.Cutoff.t L.t

let create ?shards ?rebalance_every ~budget () =
  L.create ~name:"cache.estimates" ?shards ?rebalance_every ~budget ()

let find = L.find

let weight (c : Rox_algebra.Cutoff.t) =
  (8 * Array.length c.Rox_algebra.Cutoff.out) + 160

let add t k v = L.add t k ~weight:(weight v) v
let stats = L.stats
let shard_stats = L.shard_stats
let clear = L.clear
