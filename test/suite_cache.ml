(* The cross-query cache (lib/cache): the weighted LRU core against a
   reference model, fingerprint identity, hits surviving a later document
   registration, and — the
   property that justifies the subsystem — cache-on and cache-off runs
   being observationally identical (same answers, same executed trace) on
   random fuzz-style workloads, with the sanitizer cross-checking every
   hit against a fresh execution. *)

open Rox_storage
open Rox_cache
open Helpers
module Sink = Rox_telemetry.Sink

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
      let cache = SLru.create ~budget () in
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
  let c = SLru.create ~budget:10 () in
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
  let off = SLru.create ~budget:0 () in
  SLru.add off "a" ~weight:0 1;
  check_bool "budget 0 admits nothing" true (not (SLru.mem off "a"));
  SLru.clear c;
  let s = SLru.stats c in
  check_int "clear empties" 0 s.Lru.entries;
  check_int "clear keeps counters" 1 s.Lru.rejected

(* ---------- Store admission: the whole budget is usable ---------- *)

let test_store_admits_up_to_budget () =
  let engine, _ = engine_of_xml site_xml in
  let store = Store.create ~relation_budget:1000 ~estimate_budget:1000 engine in
  (* One shared 59-element column: 472 bytes of storage counted once,
     plus the 128-byte entry overhead. *)
  let c = Rox_util.Column.of_array (Array.init 59 Fun.id) in
  let v = { Store.left = c; right = c } in
  check_int "entry weight" 600 (Store.weight Store.Relation v);
  let memo () =
    Store.memo (Some store) Store.Relation ~sanitize:false
      ~telemetry:(Sink.null ()) ~edge:0
      ~key:(fun () -> Fingerprint.make [ "admit" ])
      ~run:(fun ~charged:_ -> v)
  in
  ignore (memo () : Store.pairs);
  ignore (memo () : Store.pairs);
  let s = (Store.stats store).Store.relations in
  check_int "600-byte entry resident under a 1000-byte budget" 1 s.Lru.hits;
  check_int "not rejected" 0 s.Lru.rejected;
  check_int "resident bytes" 600 s.Lru.bytes

(* ---------- Two-domain hammer: every hit bit-identical ---------- *)

let test_hammer_bit_identical () =
  (* Each key's value is a pure function of the key, so whatever domain
     wrote last, any hit must return exactly that function's value. *)
  let expected k = Hashtbl.hash ("v:" ^ k) in
  let cache = SLru.create ~budget:65536 () in
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
      && Fingerprint.make [ "x"; Fingerprint.table a ]
         <> Fingerprint.make [ "y"; Fingerprint.table a ]
      && Fingerprint.option_table None <> Fingerprint.option_table (Some [||]))

(* ---------- End-to-end: cache-on = cache-off, registration, reuse ---------- *)

let queries =
  [
    {|for $p in doc("doc0.xml")//person[./address]
return $p|};
    {|for $a in doc("doc0.xml")//auction,
    $p in doc("doc0.xml")//person
where $a/ref/@person = $p/@id
return $p|};
  ]

let run_with ?cache ?(sanitize = sanitize) engine source =
  let compiled = Rox_xquery.Compile.compile_string engine source in
  let sink = Sink.create ~enabled:true () in
  let config = { (Rox_core.Session.default_config ()) with Rox_core.Session.sanitize } in
  let session = Rox_core.Session.create ~config ?cache ~telemetry:sink () in
  let answer, _ = Rox_core.Optimizer.answer session compiled in
  (answer, sink)

let non_cache_events sink =
  List.filter
    (function Sink.Cache_lookup _ -> false | _ -> true)
    (Sink.events sink)

(* Registration only appends, and every key names its documents by id and
   its inputs by content, so registering a second document retires no
   entry: the repeat still replays from cache, with the sanitizer armed so
   RX304 re-checks each hit against a fresh execution. *)
let test_later_registration () =
  let engine, _ = engine_of_xml site_xml in
  let store = Store.create engine in
  let q = List.nth queries 1 in
  let run ?cache () = run_with ?cache ~sanitize:true engine q in
  let base, _ = run () in
  let _, _ = run ~cache:store () in
  let warm, warm_trace = run ~cache:store () in
  check_bool "warm run hits" true (Sink.cache_hits warm_trace > 0);
  check_bool "warm run replays estimates fully" true
    (Sink.cache_hits ~store:`Estimate warm_trace
     = Sink.cache_lookups ~store:`Estimate warm_trace);
  check_bool "warm answer" true (warm = base);
  ignore
    (Engine.add_tree engine ~uri:"doc1.xml" (Rox_xmldom.Xml_parser.parse_string site_xml)
      : Engine.docref);
  let uncached, _ = run () in
  let again, again_trace = run ~cache:store () in
  check_int "every relation still hits" (List.length (Sink.execution_order again_trace))
    (Sink.cache_hits ~store:`Relation again_trace);
  check_int "every estimate still hits"
    (Sink.cache_lookups ~store:`Estimate again_trace)
    (Sink.cache_hits ~store:`Estimate again_trace);
  check_bool "answer = cache-off answer" true (again = uncached && uncached = base)

(* An identical repeat on an unchanged engine replays entirely from
   cache: pass 2 runs no physical join (every executed edge is a relation
   hit), every sampled estimate hits, and both passes answer as cache-off
   runs do. Two inputs: the join query on the site document, and the
   XMark Q1/Qm1 family (< and > at 145 and 300) on one shared store. The
   family's members share edges over different input tables, so a key
   missing an input would replay one member's join into another (RX304
   under the armed sanitizer, or a wrong answer). *)
let test_estimate_reuse () =
  let repeat engine qs =
    let store = Store.create engine in
    let base = List.map (fun q -> fst (run_with ~sanitize:true engine q)) qs in
    let pass () = List.map (fun q -> run_with ~cache:store ~sanitize:true engine q) qs in
    let p1 = pass () in
    let p2 = pass () in
    let sum f runs = List.fold_left (fun a (_, t) -> a + f t) 0 runs in
    let physical t =
      List.length (Sink.execution_order t) - Sink.cache_hits ~store:`Relation t
    in
    let est_lookups = sum (Sink.cache_lookups ~store:`Estimate) in
    let est_hits = sum (Sink.cache_hits ~store:`Estimate) in
    check_bool "pass 1 answers = cache-off" true (List.map fst p1 = base);
    check_bool "pass 2 answers = cache-off" true (List.map fst p2 = base);
    check_int "pass 2: no physical join" 0 (sum physical p2);
    check_int "pass 2: all estimates from cache" (est_lookups p2) (est_hits p2);
    check_bool "pass 2 reuses pass 1's estimates" true
      (est_hits p2 >= est_lookups p1 - est_hits p1 && est_hits p2 > 0)
  in
  repeat (fst (engine_of_xml site_xml)) [ List.nth queries 1 ];
  repeat (xmark_engine ~factor:0.05 ())
    (List.concat_map
       (fun theta -> [ xmark_q1 ~op:"<" ~theta; xmark_q1 ~op:">" ~theta ])
       [ 145; 300 ])

(* The counter-vs-gauge rule of metrics.mli, exercised end-to-end: a
   store's residency is a gauge, so observing it into two registries and
   merging both into one registry must report the residency ONCE
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
      List.for_all
        (fun q ->
          match run_with ~sanitize:true engine q with
          | exception Rox_xquery.Compile.Unsupported _ -> true
          | exception Rox_xquery.Compile.Rejected _ -> true
          | base_answer, base_trace ->
            let a1, t1 = run_with ~cache:store ~sanitize:true engine q in
            let a2, t2 = run_with ~cache:store ~sanitize:true engine q in
            a1 = base_answer && a2 = base_answer
            && non_cache_events t1 = non_cache_events base_trace
            && non_cache_events t2 = non_cache_events base_trace)
        queries)

(* The relation lookup reports itself, whoever drives the runtime: a
   fixed plan through the classical executor on a cached session emits one
   relation [Cache_lookup] per executed edge, and the events agree with the
   registry's hit counter. *)
let test_executor_relation_events () =
  let engine, _ = engine_of_xml site_xml in
  let store = Store.create engine in
  let compiled = Rox_xquery.Compile.compile_string engine (List.nth queries 1) in
  let rox = Rox_core.Optimizer.run (Rox_core.Session.create ()) compiled in
  let plan =
    List.map (Rox_joingraph.Graph.edge compiled.Rox_xquery.Compile.graph)
      rox.Rox_core.Optimizer.edge_order
  in
  let run () =
    let sink = Sink.create ~enabled:true () in
    let session = Rox_core.Session.create ~cache:store ~telemetry:sink () in
    let _, run = Rox_classical.Executor.answer session compiled plan in
    let executed = List.length run.Rox_classical.Executor.edge_rows in
    check_int "one relation lookup per executed edge" executed
      (Sink.cache_lookups ~store:`Relation sink);
    let m = Sink.metrics sink in
    check_int "relation hit events = relation_cache_hits"
      m.Rox_telemetry.Metrics.relation_cache_hits.Rox_telemetry.Metrics.c_value
      (Sink.cache_hits ~store:`Relation sink);
    (executed, Sink.cache_hits ~store:`Relation sink)
  in
  let executed, cold_hits = run () in
  check_bool "edges executed" true (executed > 0);
  check_int "cold run: no relation hits" 0 cold_hits;
  let executed, warm_hits = run () in
  check_int "warm run: every edge hits" executed warm_hits

(* Under the sanitizer a hit is re-run and compared with the value's own
   equality: an estimate that differs only in its consumed fraction is a
   cache divergence (RX304). *)
let test_memo_sanitize_whole_cutoff () =
  let engine, _ = engine_of_xml site_xml in
  let store = Store.create engine in
  let cut fraction =
    { Rox_algebra.Cutoff.out = [| 3; 5 |]; produced = 2; consumed_outer = 1;
      fraction; est = 4.0; completed = false }
  in
  let memo v () =
    Store.memo (Some store) Store.Estimate ~sanitize:true ~telemetry:(Sink.null ())
      ~edge:0
      ~key:(fun () -> Fingerprint.make [ "fraction" ])
      ~run:(fun ~charged:_ -> v)
  in
  ignore (memo (cut 0.5) () : Rox_algebra.Cutoff.t);
  check_bool "equal fresh run passes" true
    (Result.is_ok (Rox_analysis.Contract.wrap (memo (cut 0.5))));
  match Rox_analysis.Contract.wrap (memo (cut 0.25)) with
  | Ok _ -> Alcotest.fail "a hit differing in fraction passed the cross-check"
  | Error d -> check_string "RX304" "RX304" d.Rox_analysis.Diagnostic.code

let suite =
  [
    prop_lru_model;
    Alcotest.test_case "weighted LRU basics" `Quick test_lru_basics;
    Alcotest.test_case "store admits entries up to the budget" `Quick
      test_store_admits_up_to_budget;
    Alcotest.test_case "2-domain hammer hits bit-identical" `Slow
      test_hammer_bit_identical;
    prop_fingerprint;
    Alcotest.test_case "later registration keeps hits valid" `Quick
      test_later_registration;
    Alcotest.test_case "repeat run replays from cache" `Quick test_estimate_reuse;
    Alcotest.test_case "double absorb: gauges max, counters add" `Quick
      test_double_absorb_gauge_not_summed;
    prop_cache_transparent;
    Alcotest.test_case "executor: one relation event per edge" `Quick
      test_executor_relation_events;
    Alcotest.test_case "memo: sanitize compares the whole cutoff" `Quick
      test_memo_sanitize_whole_cutoff;
  ]
