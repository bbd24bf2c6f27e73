module L = Lru.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type t = Rox_algebra.Cutoff.t L.t

let create ~budget () = L.create ~name:"cache.estimates" ~budget ()

let find = L.find

let weight (c : Rox_algebra.Cutoff.t) =
  (8 * Array.length c.Rox_algebra.Cutoff.out) + 160

let add t k v = L.add t k ~weight:(weight v) v
let stats = L.stats
let clear = L.clear
