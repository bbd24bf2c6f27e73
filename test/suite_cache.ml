(* The cross-query cache (lib/cache): the weighted LRU core against a
   reference model, fingerprint identity, epoch invalidation, and — the
   property that justifies the subsystem — cache-on and cache-off runs
   being observationally identical (same answers, same executed trace) on
   random fuzz-style workloads, with the sanitizer cross-checking every
   hit against a fresh execution. *)

open Rox_storage
open Rox_cache
open Helpers
module Trace = Rox_joingraph.Trace

module SLru = Lru.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* ---------- Weighted LRU vs a reference model ---------- *)

(* The model is a coldest-first list of (key, weight, value); every
   operation is applied to both the cache and the model, then the cache's
   [iter_coldest_first] order, entry count and byte total must match. *)
let model_total m = List.fold_left (fun a (_, w, _) -> a + w) 0 m

let model_add budget m k w v =
  if w > budget then List.filter (fun (k', _, _) -> k' <> k) m
  else begin
    let m = List.filter (fun (k', _, _) -> k' <> k) m @ [ (k, w, v) ] in
    let rec evict m = if model_total m > budget then evict (List.tl m) else m in
    evict m
  end

let model_find m k =
  if List.exists (fun (k', _, _) -> k' = k) m then
    let e = List.find (fun (k', _, _) -> k' = k) m in
    Some (List.filter (fun (k', _, _) -> k' <> k) m @ [ e ])
  else None

let prop_lru_model =
  qtest ~count:200 "weighted LRU = reference model"
    QCheck.(pair small_int (int_range 5 60))
    (fun (seed, budget) ->
      let rng = Rox_util.Xoshiro.create (seed * 31 + budget) in
      let cache = SLru.create ~name:"test.lru" ~budget () in
      let model = ref [] in
      let ok = ref true in
      for i = 0 to 79 do
        let k = Printf.sprintf "k%d" (Rox_util.Xoshiro.int rng 8) in
        if Rox_util.Xoshiro.int rng 3 = 0 then begin
          (* Counted find: hit must refresh recency in both worlds. *)
          let found = SLru.find cache k in
          match model_find !model k with
          | Some m' ->
            model := m';
            if found = None then ok := false
          | None -> if found <> None then ok := false
        end
        else begin
          (* Weights occasionally exceed the budget to exercise rejection. *)
          let w = Rox_util.Xoshiro.int rng (budget + budget / 2 + 2) in
          SLru.add cache k ~weight:w i;
          model := model_add budget !model k w i
        end;
        let s = SLru.stats cache in
        if s.Lru.bytes > budget then ok := false
      done;
      let actual = ref [] in
      SLru.iter_coldest_first cache (fun k v -> actual := (k, v) :: !actual);
      let actual = List.rev !actual in
      let expected = List.map (fun (k, _, v) -> (k, v)) !model in
      let s = SLru.stats cache in
      !ok && actual = expected
      && s.Lru.entries = List.length !model
      && s.Lru.bytes = model_total !model)

let test_lru_basics () =
  let c = SLru.create ~name:"test.lru" ~budget:10 () in
  SLru.add c "a" ~weight:4 1;
  SLru.add c "b" ~weight:4 2;
  check_bool "both resident" true (SLru.mem c "a" && SLru.mem c "b");
  (* Touch "a" so "b" is the eviction victim. *)
  check_bool "find a" true (SLru.find c "a" = Some 1);
  SLru.add c "c" ~weight:4 3;
  check_bool "b evicted (coldest)" true
    ((not (SLru.mem c "b")) && SLru.mem c "a" && SLru.mem c "c");
  (* Oversize entries are rejected; an oversize replacement also drops the
     stale resident entry rather than serving it. *)
  SLru.add c "a" ~weight:11 9;
  check_bool "oversize drops stale entry" true (not (SLru.mem c "a"));
  let s = SLru.stats c in
  check_int "rejected" 1 s.Lru.rejected;
  check_bool "negative weight raises" true
    (match SLru.add c "x" ~weight:(-1) 0 with
     | _ -> false
     | exception Invalid_argument _ -> true);
  (* A non-positive budget means "cache off": nothing is ever admitted. *)
  let off = SLru.create ~name:"test.lru" ~budget:0 () in
  SLru.add off "a" ~weight:0 1;
  check_bool "budget 0 admits nothing" true (not (SLru.mem off "a"));
  SLru.clear c;
  let s = SLru.stats c in
  check_int "clear empties" 0 s.Lru.entries;
  check_int "clear keeps counters" 1 s.Lru.rejected

(* ---------- Sharded store vs independent single-shard models ---------- *)

(* With rebalancing off, a 4-shard cache must be observationally equal to
   four independent single-shard caches each holding a quarter of the
   budget, with keys routed by [shard_of]: same find answers, same
   per-shard hit/miss/eviction counters, same residency, same
   coldest-first order. This is the property that makes the sharding
   refactor safe: nothing about admission or recency is global. *)
let prop_sharded_model =
  qtest ~count:150 "4-shard LRU = 4 independent single-shard models"
    QCheck.(pair small_int (int_range 8 200))
    (fun (seed, budget) ->
      let rng = Rox_util.Xoshiro.create ((seed * 97) + budget) in
      let sharded =
        SLru.create ~name:"test.shardmodel" ~shards:4 ~rebalance_every:0
          ~budget ()
      in
      let refs =
        Array.init 4 (fun i ->
            SLru.create
              ~name:(Printf.sprintf "test.shardmodel.ref%d" i)
              ~budget:(budget / 4) ())
      in
      let ok = ref true in
      for i = 0 to 199 do
        let k = Printf.sprintf "m%d" (Rox_util.Xoshiro.int rng 24) in
        let r = refs.(SLru.shard_of sharded k) in
        if Rox_util.Xoshiro.int rng 3 = 0 then begin
          if SLru.find sharded k <> SLru.find r k then ok := false
        end
        else begin
          let w = Rox_util.Xoshiro.int rng ((budget / 3) + 2) in
          SLru.add sharded k ~weight:w i;
          SLru.add r k ~weight:w i
        end
      done;
      let per = SLru.shard_stats sharded in
      let counters_match =
        List.for_all
          (fun i ->
            let a = per.(i) and b = SLru.stats refs.(i) in
            a.Lru.hits = b.Lru.hits
            && a.Lru.misses = b.Lru.misses
            && a.Lru.insertions = b.Lru.insertions
            && a.Lru.evictions = b.Lru.evictions
            && a.Lru.rejected = b.Lru.rejected
            && a.Lru.entries = b.Lru.entries
            && a.Lru.bytes = b.Lru.bytes
            && a.Lru.budget = b.Lru.budget)
          [ 0; 1; 2; 3 ]
      in
      let order c =
        let acc = ref [] in
        SLru.iter_coldest_first c (fun k v -> acc := (k, v) :: !acc);
        List.rev !acc
      in
      let expected = List.concat_map (fun i -> order refs.(i)) [ 0; 1; 2; 3 ] in
      !ok && counters_match && order sharded = expected)

(* ---------- Budget rebalance ---------- *)

let test_shard_rebalance () =
  let total = 4096 in
  let c =
    SLru.create ~name:"test.rebalance" ~shards:4 ~rebalance_every:8
      ~budget:total ()
  in
  (* Drive every insertion into one shard; after [rebalance_every]
     insertions its budget share must grow while cold shards keep their
     quarter-share floor. *)
  let hot = SLru.shard_of c "r0" in
  let rec hot_keys i acc n =
    if n = 0 then List.rev acc
    else
      let k = Printf.sprintf "r%d" i in
      if SLru.shard_of c k = hot then hot_keys (i + 1) (k :: acc) (n - 1)
      else hot_keys (i + 1) acc n
  in
  List.iter (fun k -> SLru.add c k ~weight:32 0) (hot_keys 0 [] 16);
  let per = SLru.shard_stats c in
  let hot_b = per.(hot).Lru.budget in
  check_bool "hot shard budget grew past its even share" true
    (hot_b > total / 4);
  Array.iteri
    (fun i s ->
      if i <> hot then begin
        check_bool "cold shard keeps its floor" true
          (s.Lru.budget >= total / 16);
        check_bool "cold shard below hot" true (s.Lru.budget < hot_b)
      end)
    per;
  let sum = Array.fold_left (fun a s -> a + s.Lru.budget) 0 per in
  check_bool "shard budgets stay within the total" true (sum <= total);
  check_int "aggregate stats report the configured total" total
    (SLru.stats c).Lru.budget

(* ---------- Two-domain hammer: every hit bit-identical ---------- *)

let test_sharded_hammer_bit_identical () =
  (* Each key's value is a pure function of the key, so whatever domain
     wrote last, any hit must return exactly that function's value. *)
  let expected k = Hashtbl.hash ("v:" ^ k) in
  let cache = SLru.create ~name:"test.hammer" ~shards:4 ~budget:65536 () in
  let keys = Array.init 64 (fun i -> Printf.sprintf "h%d" i) in
  Array.iter (fun k -> SLru.add cache k ~weight:8 (expected k)) keys;
  let bad = Atomic.make 0 in
  let work d () =
    for i = 1 to 500 do
      let k = keys.(i * (d + 3) land 63) in
      SLru.add cache k ~weight:8 (expected k);
      match SLru.find cache k with
      | Some v when v <> expected k -> Atomic.incr bad
      | _ -> ()
    done
  in
  let other = Domain.spawn (work 1) in
  work 0 ();
  Domain.join other;
  check_int "every hit bit-identical to the writer's value" 0
    (Atomic.get bad)

(* ---------- Fingerprints ---------- *)

let prop_fingerprint =
  qtest ~count:200 "fingerprint: content identity" QCheck.small_int (fun seed ->
      let rng = Rox_util.Xoshiro.create seed in
      let arr () = Array.init (Rox_util.Xoshiro.int rng 40) (fun _ -> Rox_util.Xoshiro.int rng 1000) in
      let a = arr () and b = arr () in
      let same = a = b in
      (Fingerprint.table a = Fingerprint.table (Array.copy a))
      && (same || Fingerprint.table a <> Fingerprint.table b)
      && Fingerprint.make ~epoch:1 [ "x"; Fingerprint.table a ]
         <> Fingerprint.make ~epoch:2 [ "x"; Fingerprint.table a ]
      && Fingerprint.option_table None <> Fingerprint.option_table (Some [||]))

(* ---------- End-to-end: cache-on = cache-off, epochs, reuse ---------- *)

let queries =
  [
    {|for $p in doc("doc0.xml")//person[./address]
return $p|};
    {|for $a in doc("doc0.xml")//auction,
    $p in doc("doc0.xml")//person
where $a/ref/@person = $p/@id
return $p|};
  ]

let run_with ?cache engine source =
  let compiled = Rox_xquery.Compile.compile_string engine source in
  let trace = Trace.create () in
  let session = Rox_core.Session.create ?cache ~trace () in
  let answer, _ = Rox_core.Optimizer.answer session compiled in
  (answer, trace)

let non_cache_events trace =
  List.filter
    (function Trace.Cache_lookup _ -> false | _ -> true)
    (Trace.events trace)

let with_sanitizer f =
  let prev = Rox_algebra.Sanitize.default_mode () in
  Rox_algebra.Sanitize.set_default_mode true;
  Fun.protect
    ~finally:(fun () -> Rox_algebra.Sanitize.set_default_mode prev)
    f

let test_epoch_invalidation () =
  let engine, _ = engine_of_xml site_xml in
  let store = Store.create engine in
  with_sanitizer (fun () ->
      let q = List.nth queries 1 in
      let base, _ = run_with engine q in
      let _, _ = run_with ~cache:store engine q in
      let warm, warm_trace = run_with ~cache:store engine q in
      check_bool "warm run hits" true (Trace.cache_hits warm_trace > 0);
      check_bool "warm run replays estimates fully" true
        (Trace.cache_hits ~store:`Estimate warm_trace
         = Trace.cache_lookups ~store:`Estimate warm_trace);
      check_bool "warm answer" true (warm = base);
      (* Bumping the epoch retires every key minted before it: the next
         run finds none of the earlier entries (any hits it reports are
         its own same-epoch insertions being reused within the run) and
         still answers correctly. *)
      let before = Store.epoch store in
      Engine.bump_epoch engine;
      check_int "store sees the new epoch" (before + 1) (Store.epoch store);
      let cold, cold_trace = run_with ~cache:store engine q in
      check_int "no stale relation hits after bump" 0
        (Trace.cache_hits ~store:`Relation cold_trace);
      check_bool "estimates recompute after bump" true
        (Trace.cache_hits ~store:`Estimate cold_trace
         < Trace.cache_lookups ~store:`Estimate cold_trace);
      check_bool "post-bump answer" true (cold = base))

let test_estimate_reuse () =
  let engine, _ = engine_of_xml site_xml in
  let store = Store.create engine in
  with_sanitizer (fun () ->
      let q = List.nth queries 1 in
      let base, _ = run_with engine q in
      let a1, t1 = run_with ~cache:store engine q in
      let a2, t2 = run_with ~cache:store engine q in
      let executed t = List.length (Trace.execution_order t) in
      check_bool "answers stable" true (a1 = base && a2 = base);
      (* An identical repeat on an unchanged engine replays entirely from
         cache: every edge execution and every sampled estimate hits. *)
      check_int "second run: all relations from cache" (executed t2)
        (Trace.cache_hits ~store:`Relation t2);
      check_int "second run: all estimates from cache"
        (Trace.cache_lookups ~store:`Estimate t2)
        (Trace.cache_hits ~store:`Estimate t2);
      check_bool "second run reuses first run's estimates" true
        (Trace.cache_hits ~store:`Estimate t2
         >= Trace.cache_lookups ~store:`Estimate t1
            - Trace.cache_hits ~store:`Estimate t1
         && Trace.cache_hits ~store:`Estimate t2 > 0);
      ignore (executed t1))

(* The counter-vs-gauge rule of metrics.mli, exercised end-to-end: a
   store's residency is a gauge, so observing it into two registries and
   absorbing both into one aggregate must report the residency ONCE
   (gauges merge with Float.max — idempotent), while counters genuinely
   add. A residency that doubled here would mean add_into treats gauges
   as counters. *)
let test_double_absorb_gauge_not_summed () =
  let engine, _ = engine_of_xml site_xml in
  let store = Store.create engine in
  (* Populate the store so the residency gauge is non-zero. *)
  let _ = run_with ~cache:store engine (List.nth queries 1) in
  let bytes =
    let s = Store.stats store in
    float_of_int (s.Store.relations.Lru.bytes + s.Store.estimates.Lru.bytes)
  in
  Alcotest.(check bool) "store is non-empty" true (bytes > 0.0);
  let m1 = Rox_telemetry.Metrics.create () in
  let m2 = Rox_telemetry.Metrics.create () in
  Store.observe_into store m1;
  Store.observe_into store m2;
  Rox_telemetry.Metrics.incr m1.Rox_telemetry.Metrics.queries_served;
  Rox_telemetry.Metrics.incr m2.Rox_telemetry.Metrics.queries_served;
  let total = Rox_telemetry.Metrics.create () in
  Rox_telemetry.Metrics.add_into ~into:total m1;
  Rox_telemetry.Metrics.add_into ~into:total m2;
  Alcotest.(check (float 0.0))
    "residency gauge maxed, not summed" bytes
    total.Rox_telemetry.Metrics.cache_resident_bytes.Rox_telemetry.Metrics.g_value;
  Alcotest.(check int)
    "counters still add" 2
    total.Rox_telemetry.Metrics.queries_served.Rox_telemetry.Metrics.c_value

(* Cache-on vs cache-off on random documents: identical answers and an
   identical execution trace (modulo the Cache_lookup annotations), cold
   and warm, sanitizer armed so every hit is cross-checked bit-identical
   against a fresh execution. *)
let prop_cache_transparent =
  qtest ~count:60 "cache on = cache off on random instances" QCheck.small_int
    (fun seed ->
      let engine, _ = engine_of_trees [ random_tree seed ] in
      let store = Store.create engine in
      with_sanitizer (fun () ->
          List.for_all
            (fun q ->
              match run_with engine q with
              | exception Rox_xquery.Compile.Unsupported _ -> true
              | exception Rox_xquery.Compile.Rejected _ -> true
              | base_answer, base_trace ->
                let a1, t1 = run_with ~cache:store engine q in
                let a2, t2 = run_with ~cache:store engine q in
                a1 = base_answer && a2 = base_answer
                && non_cache_events t1 = non_cache_events base_trace
                && non_cache_events t2 = non_cache_events base_trace)
            queries))

let suite =
  [
    prop_lru_model;
    Alcotest.test_case "weighted LRU basics" `Quick test_lru_basics;
    prop_sharded_model;
    Alcotest.test_case "shard budget rebalance" `Quick test_shard_rebalance;
    Alcotest.test_case "2-domain hammer hits bit-identical" `Slow
      test_sharded_hammer_bit_identical;
    prop_fingerprint;
    Alcotest.test_case "epoch bump invalidates" `Quick test_epoch_invalidation;
    Alcotest.test_case "repeat run replays from cache" `Quick test_estimate_reuse;
    Alcotest.test_case "double absorb: gauges max, counters add" `Quick
      test_double_absorb_gauge_not_summed;
    prop_cache_transparent;
  ]
