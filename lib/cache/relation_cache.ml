module L = Lru.Make (struct
  type t = string

  let equal = String.equal
  let hash = Fingerprint.shard_hash
end)

type value = { left : Rox_util.Column.t; right : Rox_util.Column.t }
type t = value L.t

let create ?shards ?rebalance_every ~budget () =
  L.create ~name:"cache.relations" ?shards ?rebalance_every ~budget ()

let find = L.find

(* Bytes of the *underlying storage*, with storage shared between the two
   columns (e.g. zero-copy views of the same array) counted once, plus a
   conservative constant for the key string, the hashtable slot and the
   recency-list node. *)
let weight v =
  let open Rox_util in
  let left = Column.storage_bytes v.left in
  let right =
    if Column.same_storage v.left v.right then 0 else Column.storage_bytes v.right
  in
  left + right + 128

let add t k v = L.add t k ~weight:(weight v) v
let stats = L.stats
let shard_stats = L.shard_stats
let clear = L.clear
