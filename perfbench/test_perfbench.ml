(* Tests of the benchmark's own machinery: the span-to-layer reduction on
   synthetic span lists, the oracle route against the naive evaluator at
   a small scale, and the workload generators' seeded shapes. *)

module L = Perfbench.Layers
module W = Perfbench.Workloads
module Sink = Rox_telemetry.Sink

let span ?(lane = 0) ?(depth = 0) name start dur =
  { Sink.name; start_ns = Int64.of_int start; dur_ns = Int64.of_int dur; depth; lane;
    attrs = [] }

let check_acc t name ~count ~total ~self =
  let a = L.find t name in
  Alcotest.(check (triple int int int))
    name (count, total, self) (a.L.count, a.L.total_ns, a.L.self_ns)

(* query [0,100) holds chain_round [10,40) — itself holding exec_sampled
   [12,20) and [20,30) — plus execute_edge [50,90). *)
let one_query =
  [
    span ~depth:2 "exec_sampled" 12 8;
    span ~depth:2 "exec_sampled" 20 10;
    span ~depth:1 "chain_round" 10 30;
    span ~depth:1 "execute_edge" 50 40;
    span "query" 0 100;
  ]

let test_self_time () =
  let t = L.create () in
  L.add t ~dropped:0 one_query;
  check_acc t "query" ~count:1 ~total:100 ~self:30;
  check_acc t "chain_round" ~count:1 ~total:30 ~self:12;
  check_acc t "exec_sampled" ~count:2 ~total:18 ~self:18;
  check_acc t "execute_edge" ~count:1 ~total:40 ~self:40;
  Alcotest.(check int) "spans" 5 t.L.spans;
  (* Input order does not matter, and queries accumulate. *)
  L.add t ~dropped:0 (List.rev_map (fun s -> { s with Sink.start_ns = Int64.add s.Sink.start_ns 1000L }) one_query);
  check_acc t "query" ~count:2 ~total:200 ~self:60;
  check_acc t "chain_round" ~count:2 ~total:60 ~self:24

(* A child opening on the parent's clock tick is still its child. *)
let test_same_start () =
  let t = L.create () in
  L.add t ~dropped:0 [ span ~depth:1 "compile" 5 5; span "query" 5 20 ];
  check_acc t "query" ~count:1 ~total:20 ~self:15;
  check_acc t "compile" ~count:1 ~total:5 ~self:5

(* Pool-worker lanes overlap the owner's tree in wall time: they are kept
   apart and never subtracted from a lane-0 parent. *)
let test_worker_lanes () =
  let t = L.create () in
  L.add t ~dropped:0
    [
      span "query" 0 100;
      span ~lane:1 "partition_task" 10 50;
      span ~lane:2 "partition_task" 10 60;
      span ~depth:1 "execute_edge" 5 80;
    ];
  check_acc t "query" ~count:1 ~total:100 ~self:20;
  Alcotest.(check int) "no lane-0 partition spans" 0 (L.find t "partition_task").L.count;
  Alcotest.(check int) "worker count" 2 (L.find_worker t "partition_task").L.count;
  Alcotest.(check int) "worker time" 110 (L.worker_total_ns t)

(* Spans are buffered as they close, so a full sink loses parents and
   keeps their children: the orphans still count under their own name. *)
let test_truncation () =
  let t = L.create () in
  L.add t ~dropped:1 [ span ~depth:1 "execute_edge" 10 40; span ~depth:1 "execute_edge" 60 20 ];
  check_acc t "execute_edge" ~count:2 ~total:60 ~self:60;
  check_acc t "query" ~count:0 ~total:0 ~self:0;
  Alcotest.(check int) "dropped" 1 t.L.dropped;
  Alcotest.(check int) "truncated queries" 1 t.L.truncated_queries

(* The oracle must agree with the naive evaluator — an implementation
   that shares nothing with the join-graph engine. *)
let naive engine text =
  Array.of_list (List.map snd (Rox_xquery.Naive.eval_string engine text))

let test_oracle_xmark () =
  let engine = W.xmark_engine ~seed:5 ~scale:0.03 in
  List.iter
    (fun (op, theta) ->
      let text = W.q1_text ~op ~theta in
      let expected = naive engine text in
      Alcotest.(check bool) "non-empty answer" true (Array.length expected > 0);
      Alcotest.(check (array int)) text expected (W.reference engine text))
    [ ("<", 150); (">", 150) ]

let test_oracle_dblp () =
  let engine = Rox_storage.Engine.create () in
  let venues = List.map Rox_workload.Dblp.find_venue [ "VLDB"; "ICDE"; "SIGMOD"; "EDBT" ] in
  ignore
    (Rox_workload.Dblp.load
       ~params:{ Rox_workload.Dblp.default_gen with Rox_workload.Dblp.reduction = 200 }
       engine venues
      : Rox_workload.Dblp.loaded list);
  let text = Rox_workload.Dblp.query_for (List.map Rox_workload.Dblp.uri_of venues) in
  let expected = naive engine text in
  Alcotest.(check bool) "non-empty answer" true (Array.length expected > 0);
  Alcotest.(check (array int)) "4-venue author join" expected (W.reference engine text)

let test_generators () =
  let strata = 24 in
  let qs = W.xmark_queries ~seed:3 ~strata in
  Alcotest.(check int) "two ops per stratum" (2 * strata) (Array.length qs);
  Alcotest.(check bool) "seeded" true (qs = W.xmark_queries ~seed:3 ~strata);
  Alcotest.(check bool) "seed moves θ" false (qs = W.xmark_queries ~seed:4 ~strata);
  let texts = W.served_texts ~strata:16 ~rounds:15 in
  Alcotest.(check int) "distinct served texts" 240
    (List.length (List.sort_uniq compare (Array.to_list texts)));
  let next = W.zipf_sampler ~seed:1 50 in
  let hist = Array.make 50 0 in
  for _ = 1 to 5000 do
    let i = next () in
    hist.(i) <- hist.(i) + 1
  done;
  Alcotest.(check bool) "head outdraws tail" true (hist.(0) > 5 * hist.(49))

let () =
  Alcotest.run "perfbench"
    [
      ( "layers",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "same start" `Quick test_same_start;
          Alcotest.test_case "worker lanes" `Quick test_worker_lanes;
          Alcotest.test_case "truncation" `Quick test_truncation;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "oracle = naive (xmark)" `Quick test_oracle_xmark;
          Alcotest.test_case "oracle = naive (dblp)" `Quick test_oracle_dblp;
          Alcotest.test_case "generators" `Quick test_generators;
        ] );
    ]
