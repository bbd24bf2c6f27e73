open Rox_util
open Rox_algebra
module Sink = Rox_telemetry.Sink
module Tm = Rox_telemetry.Metrics

module L = Lru.Make (struct
  type t = string
  let equal = String.equal
  let hash = Hashtbl.hash
end)

type pairs = { left : Column.t; right : Column.t }

type _ kind =
  | Relation : pairs kind
  | Estimate : Cutoff.t kind

type t = {
  engine : Rox_storage.Engine.t;
  relations : pairs L.t;
  estimates : Cutoff.t L.t;
}

let default_budget = 16 * 1024 * 1024

let create ?(relation_budget = default_budget) ?(estimate_budget = default_budget)
    engine =
  {
    engine;
    relations = L.create ~budget:relation_budget ();
    estimates = L.create ~budget:estimate_budget ();
  }

let of_megabytes engine mb =
  let bytes = mb * 1024 * 1024 in
  create ~relation_budget:(bytes * 3 / 4) ~estimate_budget:(bytes / 4) engine

let engine t = t.engine

let lru : type v. t -> v kind -> v L.t =
 fun t -> function Relation -> t.relations | Estimate -> t.estimates

(* Pairs weigh the bytes of their underlying storage, with storage shared
   between the two columns (e.g. zero-copy views of the same array) counted
   once; both kinds add a conservative constant for the key string, the
   hashtable slot and the recency-list node. *)
let weight : type v. v kind -> v -> int =
 fun kind v ->
  match kind with
  | Relation ->
    let right =
      if Column.same_storage v.left v.right then 0 else Column.storage_bytes v.right
    in
    Column.storage_bytes v.left + right + 128
  | Estimate -> (8 * Array.length v.Cutoff.out) + 160

let equal : type v. v kind -> v -> v -> bool =
 fun kind a b ->
  match kind with
  | Relation -> Column.equal a.left b.left && Column.equal a.right b.right
  | Estimate -> Cutoff.equal a b

let verify_replay kind ~op ~what ~replayed ~fresh =
  if not (equal kind replayed fresh) then
    Sanitize.fail ~op ~contract:Sanitize.Cache_consistent
      (what ^ " differs from a fresh execution")

let note_lookup : type v. v kind -> Sink.t -> edge:int -> hit:bool -> unit =
 fun kind tel ~edge ~hit ->
  if Sink.enabled tel then begin
    let m = Sink.metrics tel in
    Tm.incr
      (match (kind, hit) with
       | Relation, true -> m.Tm.relation_cache_hits
       | Relation, false -> m.Tm.relation_cache_misses
       | Estimate, true -> m.Tm.estimate_cache_hits
       | Estimate, false -> m.Tm.estimate_cache_misses);
    let store = match kind with Relation -> `Relation | Estimate -> `Estimate in
    Sink.emit tel (Sink.Cache_lookup { edge; store; hit })
  end

let memo (type v) store (kind : v kind) ~sanitize ~telemetry ~edge ~key
    ~(run : charged:bool -> v) : v =
  match store with
  | None -> run ~charged:true
  | Some t ->
    let lru = lru t kind in
    let key = key () in
    (match L.find lru key with
     | Some v ->
       note_lookup kind telemetry ~edge ~hit:true;
       if sanitize then
         verify_replay kind
           ~op:(Printf.sprintf "Store.memo(e%d)" edge)
           ~what:("cached " ^ key) ~replayed:v ~fresh:(run ~charged:false);
       v
     | None ->
       note_lookup kind telemetry ~edge ~hit:false;
       let v = run ~charged:true in
       L.add lru key ~weight:(weight kind v) v;
       v)

type stats = {
  relations : Lru.stats;
  estimates : Lru.stats;
}

let stats (t : t) : stats =
  { relations = L.stats t.relations; estimates = L.stats t.estimates }

let observe_into t m =
  let s = stats t in
  Tm.set m.Tm.cache_resident_bytes
    (float_of_int (s.relations.Lru.bytes + s.estimates.Lru.bytes));
  Tm.set m.Tm.cache_lock_waits
    (float_of_int (s.relations.Lru.lock_waits + s.estimates.Lru.lock_waits))

let stats_to_string s =
  Printf.sprintf "relations: %s\nestimates: %s\n"
    (Lru.stats_to_string s.relations)
    (Lru.stats_to_string s.estimates)

let clear (t : t) =
  L.clear t.relations;
  L.clear t.estimates
