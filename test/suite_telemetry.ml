(* The telemetry layer (lib/telemetry): log₂ histogram bucket boundaries,
   span nesting and exception-safety of the sink, the zero-cost disabled
   path, exporter round-trips through the Chrome-trace validator, and the
   property the multi-domain server leans on — per-request registries
   summing exactly into the server's mutex-guarded ledger. *)

open Helpers
open Rox_telemetry
module A = Rox_analysis

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---------- Histogram bucket boundaries ---------- *)

let test_bucket_boundaries () =
  (* Bucket i covers [2^i, 2^(i+1)); bucket 0 also absorbs v <= 1. *)
  List.iter
    (fun (v, b) -> check_int (Printf.sprintf "bucket_of %d" v) b (Metrics.bucket_of v))
    [ (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (7, 2); (8, 3); (1023, 9); (1024, 10) ];
  for k = 1 to 61 do
    check_int
      (Printf.sprintf "bucket_of 2^%d" k)
      k
      (Metrics.bucket_of (1 lsl k));
    check_int
      (Printf.sprintf "bucket_of (2^%d - 1)" k)
      (k - 1)
      (Metrics.bucket_of ((1 lsl k) - 1))
  done;
  check_int "bucket_upper 0" 1 (Metrics.bucket_upper 0);
  check_int "bucket_upper 3" 15 (Metrics.bucket_upper 3);
  check_int "last bucket unbounded" max_int
    (Metrics.bucket_upper (Metrics.n_buckets - 1));
  check_int "max_int lands in last bucket" (Metrics.n_buckets - 1)
    (Metrics.bucket_of max_int)

let prop_bucket_contains =
  qtest ~count:500 "bucket_of v is the unique bucket containing v"
    QCheck.(int_range 1 max_int)
    (fun v ->
      let b = Metrics.bucket_of v in
      v <= Metrics.bucket_upper b && (b = 0 || v > Metrics.bucket_upper (b - 1)))

let test_observe_and_quantile () =
  let m = Metrics.create () in
  let h = m.Metrics.query_ns in
  check_int "empty quantile" 0 (int_of_float (Metrics.quantile h 0.5));
  for _ = 1 to 99 do
    Metrics.observe h 1
  done;
  Metrics.observe h 1000;
  check_int "count" 100 h.Metrics.h_count;
  check_int "sum" (99 + 1000) h.Metrics.h_sum;
  check_int "bucket 0 holds the 1s" 99 h.Metrics.h_buckets.(0);
  check_int "bucket_of 1000" 9 (Metrics.bucket_of 1000);
  check_int "bucket 9 holds the 1000" 1 h.Metrics.h_buckets.(9);
  (* Quantiles log-interpolate within the holding bucket: bucket 0 pins
     to 1.0, and a rank landing at the top of bucket i resolves to
     2^(i+1) (the next power of two), not the inclusive upper bound. *)
  check_int "p50" 1 (int_of_float (Metrics.quantile h 0.5));
  check_int "p99" 1 (int_of_float (Metrics.quantile h 0.99));
  check_int "p100" 1024 (int_of_float (Metrics.quantile h 1.0));
  (* Negative / zero observations land in bucket 0, contribute 0 to sum. *)
  Metrics.observe h (-5);
  check_int "neg counted" 101 h.Metrics.h_count;
  check_int "neg adds nothing" (99 + 1000) h.Metrics.h_sum

(* ---------- Span recording ---------- *)

let test_span_nesting () =
  let sink = Sink.create ~enabled:true () in
  let r =
    Sink.with_span sink "a" (fun () ->
        let x =
          Sink.with_span sink "b" (fun () ->
              Sink.with_span sink "c" (fun () -> 40))
        in
        x + Sink.with_span sink "d" (fun () -> 2))
  in
  check_int "result threads through" 42 r;
  check_int "span count" 4 (Sink.span_count sink);
  check_int "no live spans" 0 (Sink.depth sink);
  let names = List.map (fun s -> s.Sink.name) (Sink.timeline sink) in
  Alcotest.(check (list string)) "chronological order" [ "a"; "b"; "c"; "d" ] names;
  let depths = List.map (fun s -> s.Sink.depth) (Sink.timeline sink) in
  Alcotest.(check (list int)) "depths" [ 0; 1; 2; 1 ] depths;
  (* Completion order: children close before parents. *)
  let completed = List.map (fun s -> s.Sink.name) (Sink.spans sink) in
  Alcotest.(check (list string)) "completion order" [ "c"; "b"; "d"; "a" ] completed;
  List.iter
    (fun s -> check_bool "non-negative dur" true (s.Sink.dur_ns >= 0L))
    (Sink.spans sink);
  check_int "RX4xx clean" 0 (List.length (A.Telemetry_check.check sink))

let test_span_exception_safety () =
  let sink = Sink.create ~enabled:true () in
  let recorded = ref (-1) in
  (try
     Sink.with_span sink "outer" (fun () ->
         Sink.with_span sink "boom"
           ~record:(fun _ dur -> recorded := dur)
           (fun () -> failwith "abort"))
   with Failure _ -> ());
  check_int "both spans closed" 2 (Sink.span_count sink);
  check_int "depth restored" 0 (Sink.depth sink);
  check_bool "record fired on unwind" true (!recorded >= 0);
  check_int "still well-nested" 0 (List.length (A.Telemetry_check.check sink))

let test_span_cap () =
  let sink = Sink.create ~cap:3 ~enabled:true () in
  for i = 1 to 5 do
    Sink.with_span sink (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  check_int "kept at cap" 3 (Sink.span_count sink);
  check_int "dropped" 2 (Sink.dropped sink);
  check_int "spans_dropped counter" 2
    (Sink.metrics sink).Metrics.spans_dropped.Metrics.c_value;
  let ds = A.Telemetry_check.check sink in
  check_bool "RX404 warning raised" true
    (List.exists (fun d -> d.A.Diagnostic.code = "RX404") ds);
  check_bool "truncation is not an error" true
    (not (List.exists A.Diagnostic.is_error ds));
  Sink.reset sink;
  check_int "reset clears spans" 0 (Sink.span_count sink);
  check_int "reset clears dropped" 0 (Sink.dropped sink)

let prop_random_nesting_well_formed =
  qtest ~count:100 "random span trees pass the RX401/RX402 verifier"
    QCheck.(small_int)
    (fun seed ->
      let rng = Rox_util.Xoshiro.create (seed + 7) in
      let sink = Sink.create ~enabled:true () in
      let rec go depth =
        let n = Rox_util.Xoshiro.int rng 3 in
        for i = 0 to n - 1 do
          Sink.with_span sink
            (Printf.sprintf "s%d_%d" depth i)
            (fun () -> if depth < 4 then go (depth + 1))
        done
      in
      go 0;
      Sink.depth sink = 0 && A.Telemetry_check.check sink = [])

(* ---------- The disabled path ---------- *)

let test_disabled_sink () =
  let sink = Sink.null () in
  let attrs_hit = ref false and record_hit = ref false in
  let r =
    Sink.with_span sink "x"
      ~attrs:(fun () ->
        attrs_hit := true;
        [])
      ~record:(fun _ _ -> record_hit := true)
      (fun () -> 7)
  in
  check_int "result passes through" 7 r;
  check_bool "enabled" false (Sink.enabled sink);
  check_int "nothing recorded" 0 (Sink.span_count sink);
  check_bool "attrs thunk never evaluated" false !attrs_hit;
  check_bool "record never called" false !record_hit;
  check_int "vacuously clean" 0 (List.length (A.Telemetry_check.check sink))

let test_disabled_sink_no_alloc () =
  (* The overhead contract: a disabled sink is one boolean test — the
     instrumented loop below must not allocate. Closures are hoisted so
     the measurement sees only with_span's own cost. *)
  let sink = Sink.null () in
  let body () = 0 in
  ignore (Sink.with_span sink "hot" body);
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sink.with_span sink "hot" body)
  done;
  let dw = Gc.minor_words () -. w0 in
  check_bool
    (Printf.sprintf "disabled with_span allocates nothing (%.0f words)" dw)
    true (dw < 256.0)

(* ---------- Exporters ---------- *)

let busy_sink () =
  let sink = Sink.create ~enabled:true () in
  let m = Sink.metrics sink in
  Sink.with_span sink "query" (fun () ->
      Sink.with_span sink "execute_edge"
        ~attrs:(fun () -> [ ("edge", "3") ])
        ~record:(fun m d -> Metrics.observe m.Metrics.edge_execution_ns d)
        (fun () -> ());
      Sink.with_span sink "chain_round" (fun () -> ()));
  Metrics.incr m.Metrics.queries_served;
  Metrics.incr ~by:5 m.Metrics.relation_cache_hits;
  Metrics.incr_label ~by:2 m.Metrics.chain_stops "cannot_pay";
  Metrics.set m.Metrics.cache_resident_bytes 4096.0;
  sink

let test_chrome_trace_roundtrip () =
  let sink = busy_sink () in
  let json = Export.chrome_trace ~process_name:"rox-test" [ (1, sink) ] in
  match Rox_util.Minijson.parse json with
  | Error e -> Alcotest.failf "emitted trace does not parse: %s" e
  | Ok j -> (
    match Export.validate_chrome j with
    | Error e -> Alcotest.failf "emitted trace fails validation: %s" e
    | Ok n -> check_int "one X event per span" (Sink.span_count sink) n)

let test_chrome_trace_truncation_marker () =
  let sink = Sink.create ~cap:1 ~enabled:true () in
  for _ = 1 to 3 do
    Sink.with_span sink "s" (fun () -> ())
  done;
  let json = Export.chrome_trace [ (0, sink) ] in
  check_bool "instant event marks the drop" true (contains json "\"ph\": \"i\"")

let test_prometheus_exposition () =
  let sink = busy_sink () in
  let text = Export.prometheus (Sink.metrics sink) in
  let has s = contains text s in
  check_bool "counter line" true (has "rox_queries_served_total 1");
  check_bool "hits line" true (has "rox_relation_cache_hits_total 5");
  check_bool "gauge line" true (has "rox_cache_resident_bytes 4096");
  check_bool "labelled series" true (has "rox_chain_stops_total{trigger=\"cannot_pay\"} 2");
  check_bool "every label value exported" true
    (has "rox_chain_stops_total{trigger=\"stopping_condition\"} 0");
  check_bool "histogram count" true (has "rox_edge_execution_duration_ns_count 1");
  check_bool "+Inf ladder top" true (has "le=\"+Inf\"");
  check_bool "help text present" true (has "# HELP rox_queries_served_total");
  check_bool "type lines present" true (has "# TYPE rox_cache_resident_bytes gauge")

let test_profile_summary () =
  let sink = busy_sink () in
  let m = Sink.metrics sink in
  Metrics.incr ~by:400 m.Metrics.sampling_time_ns;
  Metrics.incr ~by:600 m.Metrics.execution_time_ns;
  let text = Export.profile ~work_units:(40, 60) m in
  let has s = contains text s in
  check_bool "sampling row" true (has "sampling");
  check_bool "execution row" true (has "execution");
  check_bool "work units shown" true (has "work units");
  check_bool "chain stops per trigger" true
    (has "chain stops         stopping_condition 0 | exhausted 0 | cannot_pay 2 | single_edge 0")

(* ---------- Budget message units (satellite: Cost.budget_message) ---------- *)

let test_budget_message_units () =
  let open Rox_algebra.Cost in
  check_string "deadline unit" "ms" (budget_unit Deadline);
  check_string "sampling unit" "work units" (budget_unit Sampled_rows);
  (match budget_message (Budget_exceeded { reason = Deadline; spent = 1503; budget = 1500 }) with
  | None -> Alcotest.fail "deadline message missing"
  | Some msg ->
    check_string "deadline message"
      "wall-clock deadline exceeded: spent 1503 ms, budget 1500 ms" msg);
  (match budget_message (Budget_exceeded { reason = Sampled_rows; spent = 120; budget = 100 }) with
  | None -> Alcotest.fail "sampling message missing"
  | Some msg ->
    check_string "sampling message"
      "sampled-rows budget exceeded: spent 120 work units, budget 100 work units" msg);
  check_bool "other exceptions pass" true (budget_message Exit = None)

(* ---------- One buffer: events and spans share the cap ---------- *)

let test_shared_cap () =
  let sink = Sink.create ~cap:3 ~enabled:true () in
  Sink.with_span sink "query" (fun () ->
      Sink.emit sink (Sink.Edge_weighted { edge = 1; weight = 1.0 });
      Sink.with_span sink "execute_edge" (fun () -> ());
      Sink.emit sink (Sink.Edge_executed { edge = 1; order = 1; pairs = 1; rel_rows = 1 });
      Sink.emit sink (Sink.Edge_weighted { edge = 2; weight = 1.0 }));
  (* Kept: the first event, the inner span, the second event. Dropped: the
     third event and the outer span, which closes last. *)
  check_int "dropped counts events and spans" 2 (Sink.dropped sink);
  check_int "one span kept" 1 (Sink.span_count sink);
  check_int "dropped counter" 2
    (Sink.metrics sink).Metrics.spans_dropped.Metrics.c_value;
  let evs = Sink.events sink in
  check_int "kept events + marker" 3 (List.length evs);
  (match List.rev evs with
   | Sink.Truncated { dropped } :: rest ->
     check_int "marker dropped count" 2 dropped;
     check_bool "marker appears once" true
       (not (List.exists (function Sink.Truncated _ -> true | _ -> false) rest))
   | _ -> Alcotest.fail "last event must be the Truncated marker");
  let rx404 =
    List.filter (fun d -> d.A.Diagnostic.code = "RX404") (A.Telemetry_check.check sink)
  in
  check_int "RX404 fires once" 1 (List.length rx404);
  (* The marker is synthesized, never stored: further emits past the cap
     only bump the counter. *)
  Sink.emit sink (Sink.Edge_weighted { edge = 9; weight = 1.0 });
  check_int "dropped grows" 3 (Sink.dropped sink);
  check_int "events stable" 3 (List.length (Sink.events sink))

let test_bad_cap_rejected () =
  List.iter
    (fun cap ->
      match Sink.create ~cap ~enabled:true () with
      | _ -> Alcotest.failf "cap %d must be rejected" cap
      | exception Invalid_argument _ -> ())
    [ 0; -1 ];
  check_int "cap 1 is fine" 0 (Sink.span_count (Sink.create ~cap:1 ~enabled:false ()))

(* ---------- add_into and the served 2-domain sum ---------- *)

let test_add_into () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr ~by:3 a.Metrics.queries_served;
  Metrics.incr ~by:4 b.Metrics.queries_served;
  Metrics.observe a.Metrics.query_ns 100;
  Metrics.observe b.Metrics.query_ns 100_000;
  Metrics.set a.Metrics.cache_resident_bytes 10.0;
  Metrics.set b.Metrics.cache_resident_bytes 99.0;
  Metrics.incr_label a.Metrics.chain_stops "exhausted";
  Metrics.incr_label ~by:2 b.Metrics.chain_stops "exhausted";
  Metrics.incr_label b.Metrics.chain_stops "single_edge";
  (match Metrics.incr_label a.Metrics.chain_stops "no_such_trigger" with
   | () -> Alcotest.fail "an unknown label value must be rejected"
   | exception Invalid_argument _ -> ());
  Metrics.add_into ~into:a b;
  check_int "counters add" 7 a.Metrics.queries_served.Metrics.c_value;
  check_int "histogram counts add" 2 a.Metrics.query_ns.Metrics.h_count;
  check_int "histogram sums add" 100_100 a.Metrics.query_ns.Metrics.h_sum;
  check_int "gauges take max" 99 (int_of_float a.Metrics.cache_resident_bytes.Metrics.g_value);
  let stops = a.Metrics.chain_stops in
  check_string "labelled counters add per value"
    "stopping_condition=0 exhausted=3 cannot_pay=0 single_edge=1"
    (String.concat " "
       (Array.to_list
          (Array.mapi (fun i v -> Printf.sprintf "%s=%d" v stops.Metrics.l_counts.(i))
             stops.Metrics.l_values)));
  check_int "source untouched" 4 b.Metrics.queries_served.Metrics.c_value

let test_two_domain_aggregate () =
  (* The serving pattern: two client domains submit against a 2-worker
     server; every request runs a session under its own sink, and the
     server merges each registry into its one ledger as the request
     completes. Every request does the same deterministic work, so the
     ledger must hold exactly [n] times one standalone session's counts. *)
  let engine = Rox_storage.Engine.create () in
  ignore
    (Rox_storage.Engine.add_tree engine ~uri:"lib.xml"
       (Rox_xmldom.Xml_parser.parse_string
          "<lib><book><author>A</author><author>B</author></book>\
           <book><author>A</author></book></lib>")
      : Rox_storage.Engine.docref);
  let query =
    {|for $b in doc("lib.xml")//book, $a in doc("lib.xml")//author
where $b//author/text() = $a/text() return $a|}
  in
  let one =
    let sink = Sink.create ~enabled:true () in
    let session = Rox_core.Session.create ~telemetry:sink () in
    ignore
      (Rox_core.Optimizer.answer session
         (Rox_xquery.Compile.compile_string ~telemetry:sink engine query));
    Sink.metrics sink
  in
  let module S = Rox_serve.Server in
  let server = S.create (S.config ~workers:2 ~queue_capacity:64 engine) in
  let per_client = 25 in
  let client () =
    for _ = 1 to per_client do
      match S.submit server (Rox_serve.Protocol.query query) with
      | Rox_serve.Protocol.Answer _ -> ()
      | _ -> Alcotest.fail "every request must be answered"
    done
  in
  let other = Domain.spawn client in
  client ();
  Domain.join other;
  S.shutdown server;
  let n = 2 * per_client in
  let m = S.metrics server in
  let c (f : Metrics.t -> Metrics.counter) x = (f x).Metrics.c_value in
  let hc (f : Metrics.t -> Metrics.histogram) x = (f x).Metrics.h_count in
  check_int "one query_ns observation per session" 1 (hc (fun m -> m.Metrics.query_ns) one);
  check_bool "the query executes edges" true (c (fun m -> m.Metrics.edges_executed) one > 0);
  List.iter
    (fun (name, get) -> check_int name (n * get one) (get m))
    [
      ("queries_served sums across domains", c (fun m -> m.Metrics.queries_served));
      ("query_ns count sums across domains", hc (fun m -> m.Metrics.query_ns));
      ("edges_executed sums across domains", c (fun m -> m.Metrics.edges_executed));
      ("chain_rounds sums across domains", c (fun m -> m.Metrics.chain_rounds));
    ];
  check_int "one serve_ns observation per request" n (hc (fun m -> m.Metrics.serve_ns) m)

(* ---------- End-to-end: a real run under an enabled sink ---------- *)

let xmark_run () =
  let engine = Rox_storage.Engine.create () in
  ignore
    (Rox_workload.Xmark.generate
       ~params:(Rox_workload.Xmark.scaled 0.02)
       engine ~uri:"xmark.xml"
      : Rox_storage.Engine.docref);
  let compiled =
    Rox_xquery.Compile.compile_string engine
      {|let $d := doc("xmark.xml")
for $o in $d//open_auction[.//current/text() < 145],
    $p in $d//person[.//province]
where $o//bidder//personref/@person = $p/@id
return $o|}
  in
  let sink = Sink.create ~enabled:true () in
  let session = Rox_core.Session.create ~telemetry:sink () in
  (compiled, sink, Rox_core.Optimizer.answer session compiled)

let test_session_run_records () =
  let compiled, sink, (a, _) = xmark_run () in
  let b = fst (Rox_core.Optimizer.answer (Rox_core.Session.create ()) compiled) in
  check_bool "telemetry does not change answers" true (a = b);
  let m = Sink.metrics sink in
  check_int "one query served" 1 m.Metrics.queries_served.Metrics.c_value;
  check_bool "edges were executed" true (m.Metrics.edges_executed.Metrics.c_value > 0);
  check_bool "edge spans recorded" true
    (List.exists (fun s -> s.Sink.name = "execute_edge") (Sink.spans sink));
  (* RX401/RX402 over a timeline that carries the zero-duration events. *)
  let timeline = Sink.timeline sink in
  check_bool "timeline carries events" true
    (List.exists
       (fun s -> s.Sink.name = "edge_executed" && s.Sink.dur_ns = 0L)
       timeline);
  check_int "timeline holds every entry"
    (Sink.span_count sink + List.length (Sink.events sink))
    (List.length timeline);
  check_int "verifier clean on a real run" 0
    (List.length (A.Telemetry_check.check sink))

(* Edge events and execute_edge spans share one buffer; every executed
   edge must still have exactly one span carrying its id. *)
let test_edge_events_match_spans () =
  let _, sink, (_, result) = xmark_run () in
  check_int "nothing dropped" 0 (Sink.dropped sink);
  let span_edges =
    List.filter_map
      (fun s ->
        if s.Sink.name = "execute_edge" then
          Option.bind (List.assoc_opt "edge" s.Sink.attrs) int_of_string_opt
        else None)
      (Sink.spans sink)
  in
  let executed = Sink.execution_order sink in
  check_bool "events follow the plan" true (executed = result.Rox_core.Optimizer.edge_order);
  List.iter
    (fun edge ->
      check_int (Printf.sprintf "e%d has one execute_edge span" edge) 1
        (List.length (List.filter (( = ) edge) span_edges)))
    executed;
  check_int "no span without its event" (List.length executed) (List.length span_edges)

(* Every strategy runs through the one execution driver: one query span,
   Edge_executed events in the run's own order, one query served; a
   baseline out of time counts one budget abort. *)
let test_every_strategy_one_driver () =
  let compiled, _, _ = xmark_run () in
  let engine = compiled.Rox_xquery.Compile.engine in
  let graph = compiled.Rox_xquery.Compile.graph in
  let outputs = Rox_xquery.Tail.outputs compiled.Rox_xquery.Compile.tail in
  let session ?deadline_ms ~use_chain sink =
    let config = Rox_core.Session.default_config () in
    let budgets = { config.Rox_core.Session.budgets with Rox_core.Session.deadline_ms } in
    Rox_core.Session.create
      ~config:{ config with Rox_core.Session.use_chain; budgets }
      ~telemetry:sink ()
  in
  let static s =
    Rox_classical.Executor.execute s ~outputs engine graph
      (Rox_classical.Classical_opt.static_order engine graph)
  in
  let midquery s = fst (Rox_classical.Midquery.execute s ~outputs engine graph) in
  List.iter
    (fun (name, use_chain, run) ->
      let sink = Sink.create ~enabled:true () in
      let result : Rox_core.Driver.result = run (session ~use_chain sink) in
      let queries = List.filter (fun s -> s.Sink.name = "query") (Sink.spans sink) in
      check_int (name ^ ": one query span") 1 (List.length queries);
      check_bool (name ^ ": events follow the run") true
        (Sink.execution_order sink = result.Rox_core.Driver.edge_order);
      check_int (name ^ ": one query served") 1
        (Sink.metrics sink).Metrics.queries_served.Metrics.c_value)
    [
      ("rox", true, fun s -> Rox_core.Optimizer.run s compiled);
      ("greedy", false, fun s -> Rox_core.Optimizer.run s compiled);
      ("static", false, static);
      ("midquery", false, midquery);
    ];
  List.iter
    (fun (name, run) ->
      let sink = Sink.create ~enabled:true () in
      (match run (session ~deadline_ms:0 ~use_chain:false sink) with
       | exception Rox_algebra.Cost.Budget_exceeded _ -> ()
       | (_ : Rox_core.Driver.result) -> Alcotest.fail (name ^ ": a 0 ms deadline must abort"));
      check_int (name ^ ": one budget abort") 1
        (Sink.metrics sink).Metrics.budget_aborts.Metrics.c_value)
    [ ("static", static); ("midquery", midquery) ]

(* ---------- Quantile interpolation (satellite: upper-bound bias fix) --- *)

let test_quantile_interpolation () =
  (* A lone sample in bucket 9 ([512, 1024)): the rank interpolates
     log-linearly across the bucket, so q=0 pins to the lower bound 2^9
     and q=1 to the next power of two — never the old inclusive upper
     bound 1023. *)
  let one = Metrics.histogram "q" "interpolation probe" in
  Metrics.observe one 1000;
  check_int "q0 pins to 2^i" 512 (int_of_float (Metrics.quantile one 0.0));
  check_int "q1 pins to 2^(i+1)" 1024 (int_of_float (Metrics.quantile one 1.0));
  let mid = Metrics.quantile one 0.5 in
  check_bool "q0.5 lands strictly inside the bucket" true
    (mid > 512.0 && mid < 1024.0);
  (* Bucket 0 has no width to interpolate: it always reads 1.0. *)
  let low = Metrics.histogram "q" "bucket-0 probe" in
  List.iter (fun v -> Metrics.observe low v) [ 0; 1; 1 ];
  List.iter
    (fun q ->
      check_int
        (Printf.sprintf "bucket 0 pins q=%.2f" q)
        1
        (int_of_float (Metrics.quantile low q)))
    [ 0.0; 0.5; 1.0 ];
  (* A rank at the top of a sparse holding bucket resolves to that
     bucket's 2^(i+1), skipping empty buckets on the way. *)
  let multi = Metrics.histogram "q" "sparse probe" in
  List.iter (fun v -> Metrics.observe multi v) [ 2; 2; 8 ];
  check_int "p100 tops out the holding bucket" 16
    (int_of_float (Metrics.quantile multi 1.0));
  let p50 = Metrics.quantile multi 0.5 in
  check_bool "p50 interpolates inside [2,4)" true (p50 >= 2.0 && p50 < 4.0);
  (* Monotone in q — the property the adaptive threshold leans on. *)
  let spread = Metrics.histogram "q" "monotone probe" in
  List.iter (fun v -> Metrics.observe spread v) [ 1; 3; 9; 120; 5000; 70000 ];
  let last = ref 0.0 in
  for step = 0 to 20 do
    let v = Metrics.quantile spread (float_of_int step /. 20.0) in
    check_bool "quantile is monotone in q" true (v >= !last);
    last := v
  done

(* ---------- Prometheus label escaping (satellite: hostile tenants) ----- *)

let test_escape_label () =
  check_string "backslash" {|a\\b|} (Export.escape_label {|a\b|});
  check_string "quote" {|say \"hi\"|} (Export.escape_label {|say "hi"|});
  check_string "newline" {|line1\nline2|} (Export.escape_label "line1\nline2");
  check_string "clean ids pass through" "tenant-1.a"
    (Export.escape_label "tenant-1.a");
  check_string "all three at once" "\\\\\\\"\\n" (Export.escape_label "\\\"\n")

(* ---------- Flight recorder -------------------------------------------- *)

let mk_record ?(tenant = "local") ?(outcome = Recorder.Executed)
    ?(status = "ok") ?(latency_ns = 1_000) rc () =
  {
    Recorder.trace_id = Recorder.next_trace_id rc;
    fingerprint = "fp0123456789";
    tenant;
    plan_digest = Recorder.plan_digest [ 1; 2 ];
    plan_edges = 2;
    latency_ns;
    queue_ns = 0;
    sampling_units = 5;
    execution_units = 7;
    cache_hits = 1;
    cache_misses = 2;
    outcome;
    status;
    edge_ns = [ (1, 400); (2, 600) ];
  }

let test_recorder_ring_wrap () =
  let rc = Recorder.create () in
  let n = Recorder.cap + 44 in
  for _ = 1 to n do
    ignore (Recorder.observe rc (mk_record rc ()) : Recorder.reason option)
  done;
  check_int "records counts every append" n (Recorder.records rc);
  check_int "dropped = observed - cap" 44 (Recorder.dropped rc);
  check_int "ring keeps cap survivors" Recorder.cap
    (List.length (Recorder.recent rc (2 * n)));
  Alcotest.(check (list int))
    "survivors are the newest, newest first" [ n; n - 1; n - 2; n - 3 ]
    (List.map (fun r -> r.Recorder.trace_id) (Recorder.recent rc 4));
  check_bool "the oldest survivor is the first not overwritten" true
    (List.for_all
       (fun r -> r.Recorder.trace_id > 44)
       (Recorder.recent rc (2 * n)));
  (* RX701: the record count must balance the submissions. *)
  Alcotest.(check (list string)) "RX701 clean when balanced" []
    (List.map
       (fun d -> d.A.Diagnostic.code)
       (A.Recorder_check.check ~submitted:n rc));
  check_bool "RX701 fires on imbalance" true
    (List.exists
       (fun d -> d.A.Diagnostic.code = "RX701")
       (A.Recorder_check.check ~submitted:(n + 1) rc))

(* Two domains share one ring: nothing is lost or double-counted, and
   recent sees both domains' survivors. *)
let test_recorder_two_domain_conservation () =
  let k = 150 in
  let rc = Recorder.create () in
  let writer () =
    Domain.spawn (fun () ->
        for _ = 1 to k do
          ignore (Recorder.observe rc (mk_record rc ()) : Recorder.reason option)
        done)
  in
  let a = writer () and b = writer () in
  Domain.join a;
  Domain.join b;
  check_int "records = 2k" (2 * k) (Recorder.records rc);
  check_int "dropped = 2k - cap" ((2 * k) - Recorder.cap) (Recorder.dropped rc);
  let ids =
    List.map (fun r -> r.Recorder.trace_id) (Recorder.recent rc (2 * k))
  in
  check_int "recent returns the cap" Recorder.cap (List.length ids);
  Alcotest.(check (list int))
    "distinct, descending by trace id"
    (List.sort_uniq (fun x y -> compare y x) ids)
    ids;
  Alcotest.(check (list string)) "RX701 clean" []
    (List.map
       (fun d -> d.A.Diagnostic.code)
       (A.Recorder_check.check ~submitted:(2 * k) rc))

(* Retention on one domain is judged against the latencies every domain
   served, and threshold_ns is that same bar. *)
let test_recorder_threshold_shared_across_domains () =
  let rc = Recorder.create () in
  Domain.join
    (Domain.spawn (fun () ->
         for _ = 1 to 32 do
           ignore
             (Recorder.observe rc (mk_record rc ~latency_ns:10_000_000 ())
               : Recorder.reason option)
         done));
  check_bool "the bar armed above 5 ms" true
    (Recorder.threshold_ns rc > 5_000_000);
  let verdict latency_ns = Recorder.observe rc (mk_record rc ~latency_ns ()) in
  let five_ms, under, at =
    Domain.join
      (Domain.spawn (fun () ->
           let five_ms = verdict 5_000_000 in
           let under = verdict (Recorder.threshold_ns rc - 1) in
           let at = verdict (Recorder.threshold_ns rc) in
           (five_ms, under, at)))
  in
  check_bool "5 ms after 32 x 10 ms on another domain: not retained" true
    (five_ms = None);
  check_bool "just under threshold_ns: not retained" true (under = None);
  check_bool "at threshold_ns: Slow" true (at = Some Recorder.Slow)

let test_recorder_threshold_monotone () =
  let rc = Recorder.create () in
  check_int "unarmed threshold is the floor" Recorder.floor_ns
    (Recorder.threshold_ns rc);
  for _ = 1 to Recorder.warmup - 1 do
    ignore (Recorder.observe rc (mk_record rc ~latency_ns:4_000_000 ()))
  done;
  check_int "below warmup still the floor" Recorder.floor_ns
    (Recorder.threshold_ns rc);
  ignore (Recorder.observe rc (mk_record rc ~latency_ns:4_000_000 ()));
  let armed = Recorder.threshold_ns rc in
  check_bool "warmup arms the quantile above the floor" true
    (armed > Recorder.floor_ns);
  (* Feeding ever-slower batches can only raise the bar: the quantile of
     a right-shifted mass never moves left. *)
  let last = ref armed in
  List.iter
    (fun lat ->
      for _ = 1 to Recorder.warmup do
        ignore (Recorder.observe rc (mk_record rc ~latency_ns:lat ()))
      done;
      let now = Recorder.threshold_ns rc in
      check_bool "threshold never decreases under slower load" true
        (now >= !last);
      last := now)
    [ 8_000_000; 32_000_000; 128_000_000 ]

(* A retained trace as the served path builds it: one real sink's
   snapshot, here holding a single span named [name]. *)
let snap ?(name = "query") () =
  let sink = Sink.create ~enabled:true () in
  Sink.with_span sink name ignore;
  Option.get (Sink.snapshot sink)

let single_span_name = function
  | Some (_, _, snapshot) -> (
    match Sink.snapshot_timeline snapshot with [ s ] -> Some s.Sink.name | _ -> None)
  | None -> None

let test_recorder_retention () =
  (* Warmup not reached and trace ids below the head-sampling period:
     only Errored and the floor-crossing Slow path can retain. *)
  let rc = Recorder.create () in
  let err = mk_record rc ~status:"deadline" ~latency_ns:1 () in
  (match Recorder.observe rc err with
   | Some Recorder.Errored -> ()
   | _ -> Alcotest.fail "errored must retain whatever its latency");
  let slow = mk_record rc ~latency_ns:5_000_000 () in
  (match Recorder.observe rc slow with
   | Some Recorder.Slow -> ()
   | _ -> Alcotest.fail "latency past the floor must retain");
  (match
     Recorder.observe rc
       (mk_record rc ~outcome:Recorder.Rejected ~latency_ns:5_000_000 ())
   with
   | None -> ()
   | Some _ -> Alcotest.fail "a rejection's latency is not service time");
  (match Recorder.observe rc (mk_record rc ~latency_ns:10 ()) with
   | None -> ()
   | Some _ -> Alcotest.fail "fast ok request must not retain");
  (* A snapshot is frozen when taken; an empty sink has none. *)
  let sink = Sink.create ~enabled:true () in
  Sink.with_span sink "before" ignore;
  let frozen = Option.get (Sink.snapshot sink) in
  Sink.emit sink (Sink.Edge_weighted { edge = 1; weight = 1.0 });
  check_int "snapshot ignores later entries" 1
    (List.length (Sink.snapshot_timeline frozen));
  check_bool "empty sink has no snapshot" true
    (Sink.snapshot (Sink.create ~enabled:true ()) = None);
  (* Retention storage: addressable by id, FIFO-evicted, re-retain no-op. *)
  Recorder.retain rc err Recorder.Errored (snap ~name:"first" ());
  Recorder.retain rc slow Recorder.Slow (snap ());
  check_int "two retained" 2 (Recorder.retained_count rc);
  let found = Recorder.find_trace rc err.Recorder.trace_id in
  (match found with
   | Some (r, Recorder.Errored, _) ->
     check_int "record rides along" err.Recorder.trace_id r.Recorder.trace_id;
     check_bool "spans ride along" true (single_span_name found = Some "first")
   | _ -> Alcotest.fail "errored trace must be addressable");
  Recorder.retain rc err Recorder.Slow (snap ~name:"dupe" ());
  let found = Recorder.find_trace rc err.Recorder.trace_id in
  (match found with
   | Some (_, Recorder.Errored, _) ->
     check_bool "re-retain is a no-op" true (single_span_name found = Some "first")
   | _ -> Alcotest.fail "re-retain must keep the original");
  (* Retaining retain_cap - 1 more fills the bound; one past it evicts
     exactly the oldest. *)
  let more () =
    let r = mk_record rc ~status:"busy" ~latency_ns:1 () in
    ignore (Recorder.observe rc r);
    Recorder.retain rc r Recorder.Errored (snap ());
    r
  in
  for _ = 1 to Recorder.retain_cap - 2 do
    ignore (more () : Recorder.record)
  done;
  check_int "retain_cap reached" Recorder.retain_cap
    (Recorder.retained_count rc);
  check_bool "nothing evicted at the bound" true
    (Recorder.find_trace rc err.Recorder.trace_id <> None);
  let newest = more () in
  check_int "retain_cap holds" Recorder.retain_cap (Recorder.retained_count rc);
  check_bool "oldest is FIFO-evicted" true
    (Recorder.find_trace rc err.Recorder.trace_id = None);
  check_bool "second oldest survives" true
    (Recorder.find_trace rc slow.Recorder.trace_id <> None);
  check_bool "newest survives" true
    (Recorder.find_trace rc newest.Recorder.trace_id <> None);
  check_bool "unknown id is None" true (Recorder.find_trace rc 999_999 = None);
  (* Retained well-nested spans keep RX702 quiet. *)
  Alcotest.(check (list string)) "RX702 clean" []
    (List.map (fun d -> d.A.Diagnostic.code) (A.Recorder_check.check rc))

let test_recorder_head_sampling () =
  (* Every latency sits under the 1 ms floor, so Slow never fires: only
     the 1-in-head_every head sample by trace id does. Ids are 1-based,
     so the 128th and 256th records hit. *)
  let rc = Recorder.create () in
  let hits = ref [] in
  for _ = 1 to 2 * Recorder.head_every do
    let r = mk_record rc () in
    match Recorder.observe rc r with
    | Some Recorder.Head_sampled -> hits := r.Recorder.trace_id :: !hits
    | Some _ -> Alcotest.fail "only head sampling can fire here"
    | None -> ()
  done;
  Alcotest.(check (list int)) "1-in-128 by trace id" [ 128; 256 ] (List.rev !hits)

let test_recorder_tenant_bound () =
  let rc = Recorder.create () in
  List.iter
    (fun tenant -> ignore (Recorder.observe rc (mk_record rc ~tenant ())))
    [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h"; "i"; "j"; "a" ];
  (* Ten distinct tenants, cap 8: i and j fold into "other". *)
  check_int "registry bounded to cap + other" (Recorder.tenant_cap + 1)
    (Recorder.tenant_count rc);
  ignore (Recorder.observe rc (mk_record rc ~tenant:"other" ~status:"busy" ()));
  let stats = Recorder.tenant_stats rc in
  Alcotest.(check (list (pair string int)))
    "sorted by tenant, overflow folded"
    [ ("a", 2); ("b", 1); ("c", 1); ("d", 1); ("e", 1); ("f", 1); ("g", 1);
      ("h", 1); ("other", 3) ]
    (List.map (fun s -> (s.Recorder.tenant, s.Recorder.requests)) stats);
  let other = List.find (fun s -> s.Recorder.tenant = "other") stats in
  check_int "errors land on the overflow series" 1 other.Recorder.errors;
  check_int "latency histogram follows" 3
    other.Recorder.serve_ns.Metrics.h_count;
  (* The bound holds under a flood, and RX703 agrees. *)
  for i = 1 to 50 do
    ignore
      (Recorder.observe rc (mk_record rc ~tenant:(Printf.sprintf "t%d" i) ()))
  done;
  check_int "flood cannot grow the registry" (Recorder.tenant_cap + 1)
    (Recorder.tenant_count rc);
  Alcotest.(check (list string)) "RX703 clean" []
    (List.map (fun d -> d.A.Diagnostic.code) (A.Recorder_check.check rc))

let test_recorder_hostile_tenant_label () =
  let rc = Recorder.create () in
  let hostile = "evil\"tenant\\x\nboom" in
  ignore (Recorder.observe rc (mk_record rc ~tenant:hostile ()));
  let page = Recorder.prometheus rc in
  check_bool "escaped label emitted" true
    (contains page
       "rox_tenant_requests_total{tenant=\"evil\\\"tenant\\\\x\\nboom\"} 1");
  (* The raw quote/newline never reach the page unescaped: every line
     stays a single well-formed sample. *)
  check_bool "no unescaped quote" true (not (contains page "evil\"tenant"));
  String.split_on_char '\n' page
  |> List.iter (fun line ->
         check_bool "no line is a bare continuation" true
           (line = "" || String.length line > 1))

(* The per-tenant latency histogram goes through the same exposition
   writer as the registry's histograms: a cumulative ladder up to the
   highest occupied bucket, then +Inf, _sum and _count, every line
   carrying the escaped tenant label. *)
let test_recorder_tenant_ladder () =
  let rc = Recorder.create () in
  List.iter
    (fun latency_ns ->
      ignore (Recorder.observe rc (mk_record rc ~tenant:"a\"b" ~latency_ns ())))
    [ 1_000; 5_000 ];
  let name = "rox_tenant_serve_duration_ns" in
  let lines =
    String.split_on_char '\n' (Recorder.prometheus rc)
    |> List.filter (fun l ->
           String.length l > String.length name
           && String.sub l 0 (String.length name) = name)
  in
  let bucket le n =
    Printf.sprintf "%s_bucket{tenant=\"a\\\"b\",le=\"%s\"} %d" name le n
  in
  Alcotest.(check (list string)) "tenant ladder lines"
    ([ bucket "1" 0; bucket "3" 0; bucket "7" 0; bucket "15" 0;
       bucket "31" 0; bucket "63" 0; bucket "127" 0; bucket "255" 0;
       bucket "511" 0; bucket "1023" 1; bucket "2047" 1; bucket "4095" 1;
       bucket "8191" 2; bucket "+Inf" 2 ]
    @ [ name ^ "_sum{tenant=\"a\\\"b\"} 6000";
        name ^ "_count{tenant=\"a\\\"b\"} 2" ])
    lines

let test_recorder_json_shape () =
  let module J = Rox_util.Minijson in
  let rc = Recorder.create () in
  let r = mk_record rc ~latency_ns:2_000_000 ~status:"ok" () in
  let s = J.to_string (Recorder.json_of_record ~reason:Recorder.Slow r) in
  let j =
    match J.parse s with
    | Ok v -> v
    | Error m -> Alcotest.failf "slow-log line must be valid JSON: %s" m
  in
  let num k = Option.bind (J.member k j) J.to_num_opt in
  let str k = Option.bind (J.member k j) J.to_string_opt in
  check_bool "trace_id" true (num "trace_id" = Some (float_of_int r.Recorder.trace_id));
  check_bool "fingerprint" true (str "fingerprint" = Some "fp0123456789");
  check_bool "latency in ms" true (num "latency_ms" = Some 2.0);
  check_bool "outcome label" true (str "outcome" = Some "executed");
  check_bool "retained reason" true (str "retained" = Some "slow");
  (match Option.bind (J.member "edges" j) J.to_list_opt with
   | Some [ e1; _ ] ->
     check_bool "edge id" true (Option.bind (J.member "edge" e1) J.to_num_opt = Some 1.0);
     check_bool "edge ns" true (Option.bind (J.member "ns" e1) J.to_num_opt = Some 400.0)
   | _ -> Alcotest.fail "edges must be a 2-element array");
  (* Without a reason the retained field is null, not absent — RECENT
     consumers can rely on the key. *)
  let bare = J.to_string (Recorder.json_of_record r) in
  (match J.parse bare with
   | Ok v -> check_bool "retained null" true (J.member "retained" v = Some J.Null)
   | Error m -> Alcotest.failf "bare line must parse: %s" m)

let test_recorder_slow_log_file () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rox_recorder_log_%d.jsonl" (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  check_bool "negative slow_ms rejected" true
    (match Recorder.create ~slow_ms:(-1) () with
     | _ -> false
     | exception Invalid_argument _ -> true);
  let rc = Recorder.create ~slow_log:path ~slow_ms:1 () in
  let request ?(status = "ok") latency_ns =
    ignore
      (Recorder.record_request rc ~trace_id:(Recorder.next_trace_id rc)
         ~query:"q" ~tenant:"local" ~outcome:Recorder.Executed ~status
         ~latency_ns ~queue_ns:0 None
        : Recorder.record)
  in
  request 2_000_000;
  request 10;
  request ~status:"busy" 10;
  check_int "slow + errored logged, fast skipped" 2 (Recorder.log_lines rc);
  Recorder.close rc;
  Recorder.close rc (* idempotent *);
  request 2_000_000;
  check_int "closed log stops counting" 2 (Recorder.log_lines rc);
  check_int "but records keep flowing" 4 (Recorder.records rc);
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  check_int "file carries one line per logged record" 2 (List.length !lines);
  List.iter
    (fun line ->
      match Rox_util.Minijson.parse line with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "slow-log line must parse: %s" m)
    !lines

(* The record builder: the fingerprint is the MD5 prefix of the query
   text, cache counters and per-edge timings are read from the run's
   sink, and an errored run's tree is retained under its trace id. *)
let test_recorder_record_request () =
  let rc = Recorder.create () in
  let sink = Sink.create ~enabled:true () in
  let m = Sink.metrics sink in
  Metrics.incr ~by:2 m.Metrics.relation_cache_hits;
  Metrics.incr m.Metrics.estimate_cache_hits;
  Metrics.incr m.Metrics.estimate_cache_misses;
  Sink.with_span sink "query" (fun () ->
      List.iter
        (fun e ->
          Sink.with_span sink "execute_edge"
            ~attrs:(fun () -> [ ("edge", string_of_int e) ])
            ignore)
        [ 3; 1 ]);
  let r =
    Recorder.record_request rc ~trace_id:(Recorder.next_trace_id rc)
      ~query:"for $x in doc(\"a.xml\")//b return $x" ~tenant:"alpha"
      ~outcome:Recorder.Executed ~status:"deadline" ~latency_ns:5 ~queue_ns:2
      (Some
         { Recorder.sink; plan = [ 3; 1 ]; sampling_units = 11;
           execution_units = 13 })
  in
  check_string "fingerprint is the MD5 prefix"
    (String.sub
       (Digest.to_hex (Digest.string "for $x in doc(\"a.xml\")//b return $x"))
       0 12)
    r.Recorder.fingerprint;
  check_string "plan digest" (Recorder.plan_digest [ 3; 1 ]) r.Recorder.plan_digest;
  check_int "plan edges" 2 r.Recorder.plan_edges;
  check_int "sampling spend" 11 r.Recorder.sampling_units;
  check_int "execution spend" 13 r.Recorder.execution_units;
  check_int "cache hits: relation + estimate" 3 r.Recorder.cache_hits;
  check_int "cache misses" 1 r.Recorder.cache_misses;
  Alcotest.(check (list int)) "per-edge timings in close order" [ 3; 1 ]
    (List.map fst r.Recorder.edge_ns);
  (match Recorder.find_trace rc r.Recorder.trace_id with
   | Some (kept, Recorder.Errored, _) ->
     check_int "the record rides along" r.Recorder.trace_id
       kept.Recorder.trace_id
   | _ -> Alcotest.fail "an errored run must be retained");
  let bare =
    Recorder.record_request rc ~trace_id:(Recorder.next_trace_id rc)
      ~query:"q" ~tenant:"alpha" ~outcome:Recorder.Rejected ~status:"busy"
      ~latency_ns:5 ~queue_ns:0 None
  in
  check_int "no run: no spend" 0 bare.Recorder.sampling_units;
  check_string "no run: no plan" "-" bare.Recorder.plan_digest;
  check_bool "no run: nothing to retain" true
    (Recorder.find_trace rc bare.Recorder.trace_id = None)

let suite =
  [
    ("bucket boundaries", `Quick, test_bucket_boundaries);
    prop_bucket_contains;
    ("observe and quantile", `Quick, test_observe_and_quantile);
    ("span nesting", `Quick, test_span_nesting);
    ("span exception safety", `Quick, test_span_exception_safety);
    ("span buffer cap", `Quick, test_span_cap);
    prop_random_nesting_well_formed;
    ("disabled sink records nothing", `Quick, test_disabled_sink);
    ("disabled sink allocates nothing", `Quick, test_disabled_sink_no_alloc);
    ("chrome trace round-trip", `Quick, test_chrome_trace_roundtrip);
    ("chrome trace truncation marker", `Quick, test_chrome_trace_truncation_marker);
    ("prometheus exposition", `Quick, test_prometheus_exposition);
    ("profile summary", `Quick, test_profile_summary);
    ("budget message units", `Quick, test_budget_message_units);
    ("shared cap: events and spans", `Quick, test_shared_cap);
    ("bad cap rejected", `Quick, test_bad_cap_rejected);
    ("add_into merge", `Quick, test_add_into);
    ("2-domain aggregate sum", `Quick, test_two_domain_aggregate);
    ("real run under enabled sink", `Quick, test_session_run_records);
    ("edge events match execute_edge spans", `Quick, test_edge_events_match_spans);
    ("every strategy runs through one driver", `Quick, test_every_strategy_one_driver);
    ("quantile log-interpolation pins", `Quick, test_quantile_interpolation);
    ("prometheus label escaping", `Quick, test_escape_label);
    ("recorder: ring wraparound + RX701", `Quick, test_recorder_ring_wrap);
    ("recorder: adaptive threshold monotone", `Quick, test_recorder_threshold_monotone);
    ("recorder: retention reasons + FIFO", `Quick, test_recorder_retention);
    ("recorder: head sampling 1-in-N", `Quick, test_recorder_head_sampling);
    ("recorder: tenant cardinality bound", `Quick, test_recorder_tenant_bound);
    ("recorder: hostile tenant labels", `Quick, test_recorder_hostile_tenant_label);
    ("recorder: slow-log JSON shape", `Quick, test_recorder_json_shape);
    ("recorder: slow-log file lifecycle", `Quick, test_recorder_slow_log_file);
    ("recorder: one record builder", `Quick, test_recorder_record_request);
    ("recorder: two-domain conservation", `Quick, test_recorder_two_domain_conservation);
    ("recorder: one threshold across domains", `Quick,
     test_recorder_threshold_shared_across_domains);
    ("recorder: tenant histogram ladder", `Quick, test_recorder_tenant_ladder);
  ]
