type t = {
  engine : Rox_storage.Engine.t;
  relations : Relation_cache.t;
  estimates : Estimate_cache.t;
}

let default_budget = 16 * 1024 * 1024

let create ?(relation_budget = default_budget) ?(estimate_budget = default_budget)
    engine =
  {
    engine;
    relations = Relation_cache.create ~budget:relation_budget ();
    estimates = Estimate_cache.create ~budget:estimate_budget ();
  }

let of_megabytes engine mb =
  let bytes = mb * 1024 * 1024 in
  create ~relation_budget:(bytes * 3 / 4) ~estimate_budget:(bytes / 4) engine

let engine t = t.engine
let epoch t = Rox_storage.Engine.epoch t.engine
let relations t = t.relations
let estimates t = t.estimates

type stats = {
  relations : Lru.stats;
  estimates : Lru.stats;
}

let stats (t : t) : stats =
  { relations = Relation_cache.stats t.relations;
    estimates = Estimate_cache.stats t.estimates }

let observe_into t m =
  let s = stats t in
  Rox_telemetry.Metrics.set m.Rox_telemetry.Metrics.cache_resident_bytes
    (float_of_int (s.relations.Lru.bytes + s.estimates.Lru.bytes));
  Rox_telemetry.Metrics.set m.Rox_telemetry.Metrics.cache_lock_waits
    (float_of_int (s.relations.Lru.lock_waits + s.estimates.Lru.lock_waits))

let stats_to_string s =
  Printf.sprintf "relations: %s\nestimates: %s\n"
    (Lru.stats_to_string s.relations)
    (Lru.stats_to_string s.estimates)

let clear (t : t) =
  Relation_cache.clear t.relations;
  Estimate_cache.clear t.estimates
