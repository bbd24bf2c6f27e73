open Rox_storage
open Rox_xquery
open Rox_joingraph
open Rox_core
open Helpers
module Sink = Rox_telemetry.Sink

let fig1_query =
  {|let $r := doc("xmark.xml")
for $a in $r//open_auction[./reserve]/bidder//personref,
    $b in $r//person[.//education]
where $a/@person = $b/@id
return $a|}

let answers_match engine compiled answer =
  let naive = Naive.eval_query engine compiled.Compile.query in
  let rox = Array.to_list answer |> List.map (fun p -> (0, p)) in
  (* Both XQuery-ordered sequences must agree exactly (order + duplicity),
     modulo doc ids which are all 0 here. *)
  rox = naive

(* ---------- Optimizer end-to-end vs naive ---------- *)

let test_rox_q1_correct () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine (xmark_q1 ~op:"<" ~theta:145) in
  let answer, _ = Optimizer.answer_default compiled in
  check_bool "ROX = naive on Q1" true (answers_match engine compiled answer)

let test_rox_qm1_correct () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine (xmark_q1 ~op:">" ~theta:145) in
  let answer, _ = Optimizer.answer_default compiled in
  check_bool "ROX = naive on Qm1" true (answers_match engine compiled answer)

let test_rox_fig1_correct () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine fig1_query in
  let answer, _ = Optimizer.answer_default compiled in
  check_bool "ROX = naive on Fig 1 query" true (answers_match engine compiled answer)

let test_rox_nonempty () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine (xmark_q1 ~op:"<" ~theta:145) in
  let answer, _ = Optimizer.answer_default compiled in
  check_bool "answer nonempty at this scale" true (Array.length answer > 0)

(* The 4-venue DBLP author join. *)
let dblp_compiled () =
  let engine = Engine.create () in
  let params = { Rox_workload.Dblp.default_gen with reduction = 400 } in
  ignore
    (Rox_workload.Dblp.load ~params engine
       (List.map Rox_workload.Dblp.find_venue [ "VLDB"; "ICDE"; "SIGMOD"; "EDBT" ]));
  let q = Rox_workload.Dblp.query_for [ "VLDB.xml"; "ICDE.xml"; "SIGMOD.xml"; "EDBT.xml" ] in
  (engine, Compile.compile_string engine q)

(* Doc ids vary here: compare (doc, pre) sequences. The return vertex is
   in doc 0 (VLDB). *)
let dblp_answer_matches engine compiled answer =
  List.map (fun p -> (0, p)) (Array.to_list answer)
  = Naive.eval_query engine compiled.Compile.query

let test_rox_dblp_correct () =
  let engine, compiled = dblp_compiled () in
  let answer, _ = Optimizer.answer_default compiled in
  check_bool "ROX = naive on DBLP" true (dblp_answer_matches engine compiled answer)

(* NaN text must never satisfy a numeric predicate: ROX reads the value
   index's range path, the naive evaluator compares every text node. *)
let test_rox_nan_text () =
  let engine, _ =
    engine_of_xml "<r><p>nan</p><p>3</p><p>NaN</p><p>7</p><p>-nan</p><p>1</p><p>9</p></r>"
  in
  List.iter
    (fun (op, expected) ->
      let src = Printf.sprintf {|for $p in doc("doc0.xml")//p[./text() %s 5] return $p|} op in
      let compiled = Compile.compile_string engine src in
      let answer, _ = Optimizer.answer_default compiled in
      check_bool ("ROX = naive, text() " ^ op ^ " 5") true (answers_match engine compiled answer);
      Alcotest.check int_array ("answer, text() " ^ op ^ " 5") expected answer)
    [ ("<", [| 4; 12 |]); (">", [| 8; 14 |]) ]

let test_rox_deterministic () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine (xmark_q1 ~op:"<" ~theta:145) in
  let r1 = Optimizer.run_default compiled in
  let r2 = Optimizer.run_default compiled in
  check_bool "same edge order" true (r1.Optimizer.edge_order = r2.Optimizer.edge_order);
  check_int "same work" (Rox_algebra.Cost.total r1.Optimizer.counter)
    (Rox_algebra.Cost.total r2.Optimizer.counter)

let test_rox_seed_sensitivity () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine (xmark_q1 ~op:"<" ~theta:145) in
  let s1 = Session.create ~config:{ (Session.default_config ()) with Session.seed = 1 } () in
  let a1, _ = Optimizer.answer s1 compiled in
  let s2 = Session.create ~config:{ (Session.default_config ()) with Session.seed = 99 } () in
  let a2, _ = Optimizer.answer s2 compiled in
  check_bool "answers agree across seeds" true (a1 = a2)

(* ---------- Ablations stay correct ---------- *)

let ablation_correct config () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine (xmark_q1 ~op:"<" ~theta:145) in
  let answer, _ = Optimizer.answer (Session.create ~config ()) compiled in
  check_bool "ablated optimizer still correct" true (answers_match engine compiled answer)

let test_ablation_greedy () =
  ablation_correct { (Session.default_config ()) with Session.use_chain = false } ()

let test_ablation_noresample () =
  ablation_correct { (Session.default_config ()) with Session.resample = false } ()

let test_tau_variants () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine (xmark_q1 ~op:"<" ~theta:145) in
  List.iter
    (fun tau ->
      let config = { (Session.default_config ()) with Session.tau } in
      let answer, _ = Optimizer.answer (Session.create ~config ()) compiled in
      check_bool (Printf.sprintf "correct at tau=%d" tau) true
        (answers_match engine compiled answer))
    [ 25; 100; 400 ]

(* ---------- Correlation adaptivity (the Fig 3 behaviour) ---------- *)

let bidder_edge_position engine src =
  let compiled = Compile.compile_string engine src in
  let result = Optimizer.run_default compiled in
  let graph = compiled.Compile.graph in
  let label e =
    let e = Graph.edge graph e in
    (Vertex.label (Graph.vertex graph e.Edge.v1), Vertex.label (Graph.vertex graph e.Edge.v2))
  in
  let order = List.map label result.Optimizer.edge_order in
  let rec pos i = function
    | [] -> None
    | (a, b) :: rest ->
      if a = "open_auction" && b = "bidder" then Some i else pos (i + 1) rest
  in
  (pos 0 order, List.length order)

let test_correlation_defers_bidders () =
  (* Under Q1 (< threshold) auctions have few bidders; under Qm1 (>)
     many. In both cases ROX must not explode: the bidder expansion of the
     dense side should happen late (after reductions), and both queries
     must finish with bounded work. The sharper check: work on Qm1's plan
     must stay within a small factor of Q1's despite ~3x denser bidders. *)
  let engine = xmark_engine ~factor:0.05 () in
  let c1 = Compile.compile_string engine (xmark_q1 ~op:"<" ~theta:145) in
  let cm1 = Compile.compile_string engine (xmark_q1 ~op:">" ~theta:145) in
  let r1 = Optimizer.run_default c1 in
  let rm1 = Optimizer.run_default cm1 in
  let w1 = Rox_algebra.Cost.total r1.Optimizer.counter in
  let wm1 = Rox_algebra.Cost.total rm1.Optimizer.counter in
  check_bool "both complete" true (w1 > 0 && wm1 > 0);
  let pos1, len1 = bidder_edge_position engine (xmark_q1 ~op:"<" ~theta:145) in
  let posm, lenm = bidder_edge_position engine (xmark_q1 ~op:">" ~theta:145) in
  check_bool "bidder edge executed in both" true (pos1 <> None && posm <> None);
  (* The dense-bidder query defers the open_auction->bidder expansion at
     least as late (relative position) as the sparse one. *)
  let rel p l = float_of_int (Option.get p) /. float_of_int l in
  check_bool "dense side not earlier" true (rel posm lenm >= rel pos1 len1 -. 0.34)

(* ---------- Chain sampling on a planted-correlation graph (Fig 2) ---------- *)

(* doc: r contains 50 'a' elements; each a has a 'b' child; only a few b's
   have a 'c' child, and exactly those c's have a 'd' child. The edge
   (a,b) looks cheap, but the chain b->c is hyper-selective; chain sampling
   should discover the segment through c. *)
let planted_engine () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<r>";
  for i = 0 to 49 do
    Buffer.add_string buf "<a><b>";
    if i < 3 then Buffer.add_string buf "<c><d/></c>";
    Buffer.add_string buf "</b></a>"
  done;
  Buffer.add_string buf "</r>";
  engine_of_xml (Buffer.contents buf) |> fst

let test_chain_finds_selective_path () =
  let engine = planted_engine () in
  let q =
    {|for $a in doc("doc0.xml")//a[./b//c[./d]]
return $a|}
  in
  let compiled = Compile.compile_string engine q in
  let sink = Sink.create ~enabled:true () in
  let answer, _ = Optimizer.answer (Session.create ~telemetry:sink ()) compiled in
  check_int "three selective results" 3 (Array.length answer);
  (* Chain sampling ran and chose some segment. *)
  let chose =
    List.exists (function Sink.Chain_chosen _ -> true | _ -> false) (Sink.events sink)
  in
  check_bool "chain sampling engaged" true chose

(* Algorithm 2's estimator on Figure 2's planted document: 2000 a's, each
   with a b; every 100th b has a c with two d's. The chain starts at c (20
   nodes, all sampled, so one sampled tuple stands for one full-table
   tuple): via b~c it carries 20 tuples (sf 1), via c~d 40 (sf 2). *)
let fig2_engine () =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf "<r>";
  for i = 0 to 1999 do
    Buffer.add_string buf "<a><b>";
    if i mod 100 = 0 then Buffer.add_string buf "<c><d/><d/></c>";
    Buffer.add_string buf "</b>";
    if i mod 2 = 0 then Buffer.add_string buf "<e/>";
    Buffer.add_string buf "</a>"
  done;
  Buffer.add_string buf "</r>";
  engine_of_xml (Buffer.contents buf) |> fst

(* One traced ROX run: the sink, after checking its trace replays clean. *)
let traced_run engine q =
  let compiled = Compile.compile_string engine q in
  let sink = Sink.create ~enabled:true () in
  let answer, _ = Optimizer.answer (Session.create ~telemetry:sink ()) compiled in
  check_bool "ROX = naive" true (answers_match engine compiled answer);
  let errors =
    List.filter Rox_analysis.Diagnostic.is_error
      (Rox_analysis.Trace_check.check compiled.Compile.graph sink)
  in
  check_int "trace replays clean" 0 (List.length errors);
  sink

let chain_stops sink trigger =
  let open Rox_telemetry.Metrics in
  let stops = (Sink.metrics sink).chain_stops in
  let rec find i =
    if stops.l_values.(i) = chain_trigger_label trigger then stops.l_counts.(i)
    else find (i + 1)
  in
  find 0

let test_chain_estimator_fig2 () =
  let sink = traced_run (fig2_engine ()) {|for $a in doc("doc0.xml")//a[./e][./b//c[./d]]
return $a|} in
  match Sink.chain_rounds sink with
  | (1, 100, paths) :: _ ->
    let seg via =
      match List.find_opt (fun p -> p.Sink.via = via) paths with
      | Some p -> (p.Sink.cost, p.Sink.sf)
      | None -> Alcotest.failf "round 1 has no segment via %s" via
    in
    Alcotest.(check (pair (float 1e-9) (float 1e-9))) "b~c (cost, sf)" (20.0, 1.0) (seg "b~c");
    Alcotest.(check (pair (float 1e-9) (float 1e-9))) "c~d (cost, sf)" (40.0, 2.0) (seg "c~d")
  | _ -> Alcotest.fail "expected a first chain round at cut-off 100"

(* A chain whose source is empty: no z exists, so the b~z edge weighs 0 and
   the chain starts at z with cardinality 0. Its segments carry cost 0 and
   sf 0, never 0/0. *)
let test_chain_empty_source () =
  let engine, _ = engine_of_xml "<r><a><b/></a><a><b/><c/></a></r>" in
  let sink = traced_run engine {|for $a in doc("doc0.xml")//a[./b//z][./c] return $a|} in
  let events = Sink.events sink in
  let empty =
    List.filter_map
      (function Sink.Vertex_initialized { vertex; card = 0 } -> Some vertex | _ -> None)
      events
  in
  check_bool "a chain started at the empty vertex" true
    (List.exists
       (function Sink.Chain_started { source; _ } -> List.mem source empty | _ -> false)
       events);
  let rounds = Sink.chain_rounds sink in
  List.iter
    (fun (_, _, paths) ->
      List.iter
        (fun p ->
          check_bool (p.Sink.label ^ " finite") true
            (Float.is_finite p.Sink.cost && Float.is_finite p.Sink.sf))
        paths)
    rounds

(* A hub with six one-per-a branches: every segment carries |a| tuples at
   sf 1, so none dominates, and sampling all six costs more than
   executing any one of them. *)
let test_chain_cannot_pay () =
  let branches = [ "b"; "c"; "d"; "e"; "f"; "g" ] in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "<r>";
  for _ = 1 to 50 do
    Buffer.add_string buf "<a>";
    List.iter (fun t -> Printf.bprintf buf "<%s/>" t) branches;
    Buffer.add_string buf "</a>"
  done;
  Buffer.add_string buf "</r>";
  let engine, _ = engine_of_xml (Buffer.contents buf) in
  let preds = String.concat "" (List.map (Printf.sprintf "[./%s]") branches) in
  let sink = traced_run engine (Printf.sprintf {|for $a in doc("doc0.xml")//a%s return $a|} preds) in
  check_bool "a chain stopped because it could not pay" true (chain_stops sink `Cannot_pay > 0);
  let chosen =
    List.filter (function Sink.Chain_chosen _ -> true | _ -> false) (Sink.events sink)
  in
  check_int "every chain choice counted" (List.length chosen)
    (chain_stops sink `Cannot_pay + chain_stops sink `Exhausted
     + chain_stops sink `Stopping_condition)

(* ---------- State / Estimate units ---------- *)

let test_state_init_and_weights () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine (xmark_q1 ~op:"<" ~theta:145) in
  let state =
    State.create (Session.create ()) ~outputs:(Tail.outputs compiled.Compile.tail) engine
      compiled.Compile.graph
  in
  let graph = compiled.Compile.graph in
  (* Element vertex init works, bare-range text vertex does not. *)
  Array.iter
    (fun (v : Vertex.t) ->
      let expect = Exec.can_index_init v in
      check_bool ("init " ^ Vertex.label v) expect
        (State.init_vertex_from_index state v.Vertex.id))
    (Graph.vertices graph);
  (* Edges with a sampled endpoint get a finite weight; edges between two
     unsampled vertices (e.g. @person == @id) stay unweighted — exactly the
     paper's "will stay unweighted for now". *)
  List.iter
    (fun e ->
      let sampled v = State.sample state v <> None in
      match Estimate.edge_weight state e with
      | Some w ->
        check_bool "weight finite" true (w >= 0.0 && w < infinity);
        check_bool "had a sampled endpoint" true (sampled e.Edge.v1 || sampled e.Edge.v2)
      | None ->
        check_bool "unweighted iff no sampled endpoint" false
          (sampled e.Edge.v1 || sampled e.Edge.v2))
    (Runtime.unexecuted_edges (State.runtime state))

let test_estimate_accuracy_uniform () =
  (* Uniform data: every a has exactly 2 b children; estimate of the (a,b)
     edge should be close to |a| * 2. *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf "<r>";
  for _ = 1 to 500 do Buffer.add_string buf "<a><b/><b/></a>" done;
  Buffer.add_string buf "</r>";
  let engine, _ = engine_of_xml (Buffer.contents buf) in
  let g = Graph.create () in
  let a = Graph.add_vertex g ~doc_id:0 (Vertex.Element "a") in
  let b = Graph.add_vertex g ~doc_id:0 (Vertex.Element "b") in
  let e = Graph.add_edge g ~v1:a.Vertex.id ~v2:b.Vertex.id (Edge.Step Rox_algebra.Axis.Child) in
  let state =
    State.create
      (Session.create ~config:{ (Session.default_config ()) with Session.tau = 50 } ())
      ~outputs:(Graph.vertex_ids g) engine g
  in
  ignore (State.init_vertex_from_index state a.Vertex.id : bool);
  ignore (State.init_vertex_from_index state b.Vertex.id : bool);
  match Estimate.edge_weight state e with
  | Some w -> check_bool "estimate within 25%" true (abs_float (w -. 1000.0) < 250.0)
  | None -> Alcotest.fail "expected weight"

let test_trace_records () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine (xmark_q1 ~op:"<" ~theta:145) in
  let sink = Sink.create ~enabled:true () in
  let result = Optimizer.run (Session.create ~telemetry:sink ()) compiled in
  let events = Sink.events sink in
  check_bool "vertex inits" true
    (List.exists (function Sink.Vertex_initialized _ -> true | _ -> false) events);
  check_bool "edge weights" true
    (List.exists (function Sink.Edge_weighted _ -> true | _ -> false) events);
  check_bool "executions traced" true
    (List.length (Sink.execution_order sink) = List.length result.Optimizer.edge_order);
  check_bool "order matches" true
    (Sink.execution_order sink = result.Optimizer.edge_order)

let test_work_buckets_populated () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine (xmark_q1 ~op:"<" ~theta:145) in
  let result = Optimizer.run_default compiled in
  let c = result.Optimizer.counter in
  check_bool "sampling work" true (Rox_algebra.Cost.read c Rox_algebra.Cost.Sampling > 0);
  check_bool "execution work" true (Rox_algebra.Cost.read c Rox_algebra.Cost.Execution > 0)

(* ---------- Per-query replay of cut-off sampled runs ---------- *)

let sampled_replays sink =
  (Sink.metrics sink).Rox_telemetry.Metrics.sampled_replays.Rox_telemetry.Metrics.c_value

(* Within one query, a repeated cut-off sampled run is free whether the
   session has a cross-query store or not: the state's memo replays it,
   and a fresh store would replay it too. So a one-shot session and one
   with its own empty store spend the same units on the same plan and
   give the same answer. *)
let test_replay_parity () =
  let xmark = xmark_engine ~factor:0.05 () in
  let dblp_engine, dblp = dblp_compiled () in
  List.iter
    (fun (name, engine, compiled) ->
      let run session =
        let answer, r = Optimizer.answer session compiled in
        let c = r.Optimizer.counter in
        ( answer,
          r.Optimizer.edge_order,
          Rox_algebra.Cost.read c Rox_algebra.Cost.Sampling,
          Rox_algebra.Cost.read c Rox_algebra.Cost.Execution )
      in
      let sink = Sink.create ~enabled:true () in
      let answer, order, sampling, execution = run (Session.create ~telemetry:sink ()) in
      let answer', order', sampling', execution' =
        run (Session.create ~cache:(Rox_cache.Store.create engine) ())
      in
      check_int (name ^ ": sampling units") sampling' sampling;
      check_int (name ^ ": execution units") execution' execution;
      check_bool (name ^ ": edge order") true (order = order');
      check_bool (name ^ ": answer") true (answer = answer');
      if name = "DBLP" then
        check_bool "DBLP: repeats replayed" true (sampled_replays sink > 0))
    [
      ("Q1", xmark, Compile.compile_string xmark (xmark_q1 ~op:"<" ~theta:145));
      ("Qm1", xmark, Compile.compile_string xmark (xmark_q1 ~op:">" ~theta:145));
      ("DBLP", dblp_engine, dblp);
    ]

(* With the sanitizer armed in the session config every replay is re-run
   uncharged and compared with the remembered result (RX304). The Figure 1
   query re-weighs edges against inner tables that an execution replaced,
   so a memo that matched a stale table would fail here. *)
let test_replay_sanitized () =
  let config = { (Session.default_config ()) with Session.sanitize = true } in
  let run compiled =
    let sink = Sink.create ~enabled:true () in
    let answer, _ = Optimizer.answer (Session.create ~config ~telemetry:sink ()) compiled in
    (answer, sampled_replays sink)
  in
  let engine, compiled = dblp_compiled () in
  let answer, replays = run compiled in
  check_bool "DBLP: replays re-checked" true (replays > 0);
  check_bool "ROX = naive on DBLP, sanitized" true
    (dblp_answer_matches engine compiled answer);
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine fig1_query in
  let answer, _ = run compiled in
  check_bool "ROX = naive on Fig 1 query, sanitized" true
    (answers_match engine compiled answer)

(* ---------- Live columns ---------- *)

let sorted_outputs (compiled : Compile.compiled) =
  List.sort_uniq compare (Array.to_list (Tail.outputs compiled.Compile.tail))

(* Once every edge ran, only the tail's vertices are live: the final
   relation carries exactly them, not every vertex an edge joined. *)
let test_final_relation_outputs () =
  let engine = xmark_engine () in
  List.iter
    (fun op ->
      let compiled = Compile.compile_string engine (xmark_q1 ~op ~theta:145) in
      let result = Optimizer.run (Session.create ()) compiled in
      let columns = Array.to_list (Relation.vertices result.Optimizer.relation) in
      check_bool ("Q1 " ^ op ^ ": final columns = outputs") true
        (List.sort compare columns = sorted_outputs compiled))
    [ "<"; ">" ]

(* [b] reaches the for-bound [a] only through the document root, so the
   component {b, y} has no live vertex once its step ran: it keeps one
   column, and its row count — zero when the filter matches nothing —
   still decides the answer. Every strategy must agree with the naive
   evaluator. *)
let test_dead_component () =
  let query =
    {|let $d := doc("doc0.xml")
for $a in $d//a where $d//b/y = "1" return $a|}
  in
  List.iter
    (fun (label, y, expected) ->
      let engine, _ = engine_of_xml (Printf.sprintf "<r><a/><a/><b><y>%s</y></b><b/></r>" y) in
      let compiled = Compile.compile_string engine query in
      let naive = Naive.eval_query engine compiled.Compile.query |> List.map snd in
      check_int (label ^ ": naive") expected (List.length naive);
      let greedy =
        Session.create ~config:{ (Session.default_config ()) with Session.use_chain = false } ()
      in
      let runs =
        [
          ("rox", fun () -> Optimizer.answer (Session.create ()) compiled);
          ("greedy", fun () -> Optimizer.answer greedy compiled);
          ( "static",
            fun () ->
              Rox_classical.Executor.answer (Session.create ()) compiled
                (Rox_classical.Midquery.synopsis_order engine compiled.Compile.graph) );
          ( "midquery",
            fun () ->
              let answer, result, _ = Rox_classical.Midquery.answer (Session.create ()) compiled in
              (answer, result) );
        ]
      in
      List.iter
        (fun (name, run) ->
          let answer, result = run () in
          let what = Printf.sprintf "%s, %s" label name in
          check_bool (what ^ " = naive") true (Array.to_list answer = naive);
          check_int (what ^ ": a plus one dead column") 2
            (Array.length (Relation.vertices result.Optimizer.relation)))
        runs)
    [ ("filter matches", "1", 2); ("filter matches nothing", "2", 0) ]

(* The semijoin mark buffer is per domain: two domains running the
   Q1/Qm1 family at once over one engine (no cache) must each get the
   sequential answers. *)
let test_two_domains_one_engine () =
  let engine = xmark_engine ~factor:0.05 () in
  let family =
    List.concat_map
      (fun op ->
        List.map
          (fun theta -> Compile.compile_string engine (xmark_q1 ~op ~theta))
          [ 50; 145; 250 ])
      [ "<"; ">" ]
    |> Array.of_list
  in
  let answer compiled = fst (Optimizer.answer (Session.create ()) compiled) in
  let reference = Array.map answer family in
  let n = Array.length family in
  let rounds = 20 in
  let worker offset () =
    let wrong = ref 0 in
    for i = 0 to (rounds * n) - 1 do
      let q = (i + offset) mod n in
      match answer family.(q) with
      | a -> if a <> reference.(q) then incr wrong
      | exception _ -> incr wrong
    done;
    !wrong
  in
  let other = Domain.spawn (worker 3) in
  let here = worker 0 () in
  check_int "this domain: every answer = reference" 0 here;
  check_int "other domain: every answer = reference" 0 (Domain.join other)

let suite =
  [
    Alcotest.test_case "ROX Q1 = naive" `Quick test_rox_q1_correct;
    Alcotest.test_case "ROX Qm1 = naive" `Quick test_rox_qm1_correct;
    Alcotest.test_case "ROX Fig1 query = naive" `Quick test_rox_fig1_correct;
    Alcotest.test_case "ROX answer nonempty" `Quick test_rox_nonempty;
    Alcotest.test_case "ROX DBLP = naive" `Quick test_rox_dblp_correct;
    Alcotest.test_case "ROX = naive on NaN text" `Quick test_rox_nan_text;
    Alcotest.test_case "deterministic" `Quick test_rox_deterministic;
    Alcotest.test_case "seed-independent answers" `Quick test_rox_seed_sensitivity;
    Alcotest.test_case "ablation: greedy" `Quick test_ablation_greedy;
    Alcotest.test_case "ablation: no resample" `Quick test_ablation_noresample;
    Alcotest.test_case "tau variants correct" `Quick test_tau_variants;
    Alcotest.test_case "correlation adaptivity" `Quick test_correlation_defers_bidders;
    Alcotest.test_case "chain finds selective path" `Quick test_chain_finds_selective_path;
    Alcotest.test_case "chain estimator: fig2 round 1" `Quick test_chain_estimator_fig2;
    Alcotest.test_case "chain from an empty source" `Quick test_chain_empty_source;
    Alcotest.test_case "chain stops when it cannot pay" `Quick test_chain_cannot_pay;
    Alcotest.test_case "state init and weights" `Quick test_state_init_and_weights;
    Alcotest.test_case "estimate accuracy uniform" `Quick test_estimate_accuracy_uniform;
    Alcotest.test_case "trace records" `Quick test_trace_records;
    Alcotest.test_case "work buckets populated" `Quick test_work_buckets_populated;
    Alcotest.test_case "replay parity: no store = fresh store" `Quick test_replay_parity;
    Alcotest.test_case "replays re-checked under sanitize" `Quick test_replay_sanitized;
    Alcotest.test_case "final relation holds the outputs" `Quick test_final_relation_outputs;
    Alcotest.test_case "dead component keeps its rows" `Quick test_dead_component;
    Alcotest.test_case "two domains, one engine" `Quick test_two_domains_one_engine;
  ]
