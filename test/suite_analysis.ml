(* The static analysis passes and the operator-contract sanitizer: each
   check must catch its deliberately corrupted input, and clean graphs,
   traces and runs must come back without error diagnostics. *)

open Rox_algebra
open Rox_joingraph
open Rox_analysis
open Helpers
module Sink = Rox_telemetry.Sink

let errors diags = List.filter Diagnostic.is_error diags
let codes diags = List.map (fun d -> d.Diagnostic.code) diags

let has_error code diags =
  List.exists (fun d -> Diagnostic.is_error d && d.Diagnostic.code = code) diags

(* root //→ a /→ b, plus a second a→text branch for equi tests. *)
let small_graph () =
  let g = Graph.create () in
  let root = Graph.add_vertex g ~doc_id:0 Vertex.Root in
  let a = Graph.add_vertex g ~doc_id:0 (Vertex.Element "a") in
  let b = Graph.add_vertex g ~doc_id:0 (Vertex.Element "b") in
  let trivial =
    Graph.add_edge g ~v1:root.Vertex.id ~v2:a.Vertex.id (Edge.Step Axis.Descendant)
  in
  let step = Graph.add_edge g ~v1:a.Vertex.id ~v2:b.Vertex.id (Edge.Step Axis.Child) in
  (g, trivial, step)

(* --- graph checks ------------------------------------------------------ *)

let test_disconnected_graph () =
  let g = Graph.create () in
  let root = Graph.add_vertex g ~doc_id:0 Vertex.Root in
  let a = Graph.add_vertex g ~doc_id:0 (Vertex.Element "a") in
  ignore (Graph.add_vertex g ~doc_id:0 (Vertex.Element "orphan") : Vertex.t);
  ignore
    (Graph.add_edge g ~v1:root.Vertex.id ~v2:a.Vertex.id (Edge.Step Axis.Descendant)
      : Edge.t);
  let diags = Graph_check.check g in
  check_bool "RX001 fires" true (has_error "RX001" diags)

let test_clean_graph () =
  let g, _, _ = small_graph () in
  check_int "clean graph: no diagnostics" 0 (List.length (Graph_check.check g))

let test_equijoin_on_root () =
  let g = Graph.create () in
  let root = Graph.add_vertex g ~doc_id:0 Vertex.Root in
  let t = Graph.add_vertex g ~doc_id:0 (Vertex.Text None) in
  ignore
    (Graph.add_edge g ~v1:root.Vertex.id ~v2:t.Vertex.id (Edge.Step Axis.Descendant)
      : Edge.t);
  ignore (Graph.add_edge g ~v1:root.Vertex.id ~v2:t.Vertex.id Edge.Equijoin : Edge.t);
  check_bool "RX005 fires" true (has_error "RX005" (Graph_check.check g))

let test_cross_document_step () =
  let g = Graph.create () in
  let a = Graph.add_vertex g ~doc_id:0 (Vertex.Element "a") in
  let b = Graph.add_vertex g ~doc_id:1 (Vertex.Element "b") in
  ignore
    (Graph.add_edge g ~v1:a.Vertex.id ~v2:b.Vertex.id (Edge.Step Axis.Child) : Edge.t);
  check_bool "RX006 fires" true (has_error "RX006" (Graph_check.check g))

let test_bad_derived_edge () =
  let g = Graph.create () in
  let t1 = Graph.add_vertex g ~doc_id:0 (Vertex.Text None) in
  let t2 = Graph.add_vertex g ~doc_id:0 (Vertex.Text None) in
  ignore
    (Graph.add_edge g ~v1:t1.Vertex.id ~v2:t2.Vertex.id (Edge.Step Axis.Following)
      : Edge.t);
  (* Derived equi-join with no base equi-join implying it. *)
  ignore
    (Graph.add_edge g ~derived:true ~v1:t1.Vertex.id ~v2:t2.Vertex.id Edge.Equijoin
      : Edge.t);
  check_bool "RX008 fires" true (has_error "RX008" (Graph_check.check g))

(* --- event-stream replay checks ------------------------------------------------------ *)

let weighted_exec g (e : Edge.t) ~order ~pairs ~rel_rows events =
  ignore g;
  events
  @ [
      Sink.Edge_weighted { edge = e.Edge.id; weight = 1.0 };
      Sink.Edge_executed { edge = e.Edge.id; order; pairs; rel_rows };
    ]

let trace_of events =
  let t = Sink.create ~enabled:true () in
  List.iter (Sink.emit t) events;
  t

(* --- executed plans ---------------------------------------------------- *)

(* An executed plan is the [Edge_executed] stream: [Trace_check] rejects an
   unknown, repeated or trivial edge and warns on a missing one, and a
   fixed plan that repeats or misses an edge never runs. *)
let test_plan_violations () =
  let g, trivial, step = small_graph () in
  let exec edge order = Sink.Edge_executed { edge; order; pairs = 1; rel_rows = 1 } in
  let replay events = Trace_check.check g (trace_of events) in
  check_bool "RX101 fires" true (has_error "RX101" (replay [ exec 99 1 ]));
  let weighted = Sink.Edge_weighted { edge = step.Edge.id; weight = 1.0 } in
  check_bool "RX102 fires" true
    (has_error "RX102" (replay [ weighted; exec step.Edge.id 1; exec step.Edge.id 2 ]));
  check_bool "RX107 fires" true
    (has_error "RX107"
       (replay
          [ weighted; exec step.Edge.id 1;
            Sink.Edge_weighted { edge = trivial.Edge.id; weight = 1.0 };
            exec trivial.Edge.id 2 ]));
  check_bool "RX109 warns" true (List.mem "RX109" (codes (replay [])));
  check_int "good plan: no errors" 0
    (List.length (errors (replay [ weighted; exec step.Edge.id 1 ])));
  let engine, _ = engine_of_xml "<r><a><b/></a></r>" in
  let plan_error order =
    match Rox_classical.Executor.execute_default ~outputs:(Graph.vertex_ids g) engine g order with
    | _ -> false
    | exception Rox_core.Driver.Plan_error _ -> true
  in
  check_bool "duplicated edge: Plan_error" true (plan_error [ step; step ]);
  check_bool "missing edge: Plan_error" true (plan_error [])

let test_trace_double_execution () =
  let g, _, step = small_graph () in
  let t =
    trace_of
      [
        Sink.Edge_weighted { edge = step.Edge.id; weight = 1.0 };
        Sink.Edge_executed { edge = step.Edge.id; order = 1; pairs = 2; rel_rows = 2 };
        Sink.Edge_executed { edge = step.Edge.id; order = 2; pairs = 2; rel_rows = 2 };
      ]
  in
  check_bool "RX102 fires" true (has_error "RX102" (Trace_check.check g t))

let test_trace_illegal_order () =
  let g, _, step = small_graph () in
  (* Order jumps from nothing to 3: not a contiguous prefix. *)
  let t =
    trace_of
      [
        Sink.Edge_weighted { edge = step.Edge.id; weight = 1.0 };
        Sink.Edge_executed { edge = step.Edge.id; order = 3; pairs = 2; rel_rows = 2 };
      ]
  in
  check_bool "RX103 fires" true (has_error "RX103" (Trace_check.check g t))

let test_trace_unweighted_execution () =
  let g, _, step = small_graph () in
  let t =
    trace_of
      [ Sink.Edge_executed { edge = step.Edge.id; order = 1; pairs = 2; rel_rows = 2 } ]
  in
  check_bool "RX104 fires" true (has_error "RX104" (Trace_check.check g t))

let test_trace_trivial_executed () =
  let g, trivial, step = small_graph () in
  let t =
    trace_of
      (weighted_exec g trivial ~order:2 ~pairs:1 ~rel_rows:1
         (weighted_exec g step ~order:1 ~pairs:1 ~rel_rows:1 []))
  in
  check_bool "RX107 fires" true (has_error "RX107" (Trace_check.check g t))

let test_trace_nonmonotone_cutoff () =
  let g, _, step = small_graph () in
  let t =
    trace_of
      [
        Sink.Chain_started { source = step.Edge.v1; min_edge = step.Edge.id };
        Sink.Chain_round { round = 1; cutoff = 100; paths = [] };
        Sink.Chain_round { round = 2; cutoff = 50; paths = [] };
      ]
  in
  check_bool "RX105 fires" true (has_error "RX105" (Trace_check.check g t))

(* A stop must be the one the last round's (cost, sf) justify: line 26
   (20 + 0.1·40 <= 40) holds here, so only [stopping_condition] fits. *)
let test_trace_unjustified_stop () =
  let g, _, step = small_graph () in
  let stop_with trigger =
    trace_of
      [
        Sink.Chain_started { source = step.Edge.v1; min_edge = step.Edge.id };
        Sink.Chain_round
          { round = 1; cutoff = 100;
            paths =
              [ { Sink.label = "p1"; via = "a~b"; cost = 20.0; sf = 0.1 };
                { Sink.label = "p2"; via = "a~c"; cost = 40.0; sf = 2.0 } ] };
        Sink.Chain_chosen { edges = [ step.Edge.id ]; trigger };
      ]
  in
  check_bool "line 26 holds: stopping_condition is clean" false
    (has_error "RX105" (Trace_check.check g (stop_with `Stopping_condition)));
  List.iter
    (fun trigger ->
      check_bool "a line-34 stop despite a dominating segment is RX105" true
        (has_error "RX105" (Trace_check.check g (stop_with trigger))))
    [ `Cannot_pay; `Exhausted ]

let test_trace_disconnected_chain () =
  let g = Graph.create () in
  let a = Graph.add_vertex g ~doc_id:0 (Vertex.Element "a") in
  let b = Graph.add_vertex g ~doc_id:0 (Vertex.Element "b") in
  let c = Graph.add_vertex g ~doc_id:0 (Vertex.Element "c") in
  let d = Graph.add_vertex g ~doc_id:0 (Vertex.Element "d") in
  let e1 = Graph.add_edge g ~v1:a.Vertex.id ~v2:b.Vertex.id (Edge.Step Axis.Child) in
  let e2 = Graph.add_edge g ~v1:c.Vertex.id ~v2:d.Vertex.id (Edge.Step Axis.Child) in
  let t =
    trace_of
      [
        Sink.Chain_started { source = a.Vertex.id; min_edge = e1.Edge.id };
        (* e2 does not touch the path frontier: not a connected segment. *)
        Sink.Chain_chosen { edges = [ e1.Edge.id; e2.Edge.id ]; trigger = `Exhausted };
      ]
  in
  check_bool "RX106 fires" true (has_error "RX106" (Trace_check.check g t))

let test_trace_cardinality_accounting () =
  let g, _, step = small_graph () in
  (* A fresh component must have exactly [pairs] rows. *)
  let t =
    trace_of
      [
        Sink.Edge_weighted { edge = step.Edge.id; weight = 1.0 };
        Sink.Edge_executed { edge = step.Edge.id; order = 1; pairs = 2; rel_rows = 5 };
      ]
  in
  check_bool "RX108 fires" true (has_error "RX108" (Trace_check.check g t))

let test_trace_clean_run () =
  let engine, _ = engine_of_xml site_xml in
  let compiled =
    Rox_xquery.Compile.compile_string engine
      {|for $p in doc("doc0.xml")//person[./address/city],
    $n in doc("doc0.xml")//name
where $p/name/text() = $n/text()
return $n|}
  in
  let graph = compiled.Rox_xquery.Compile.graph in
  let sink = Sink.create ~enabled:true () in
  let result = Rox_core.Optimizer.run (Rox_core.Session.create ~telemetry:sink ()) compiled in
  check_int "clean graph" 0 (List.length (errors (Graph_check.check graph)));
  check_int "clean trace" 0 (List.length (errors (Trace_check.check graph sink)));
  check_bool "trace order = plan" true
    (Sink.execution_order sink = result.Rox_core.Optimizer.edge_order)

(* --- operator-contract sanitizer --------------------------------------- *)

let test_sanitizer_unsorted_nodeset () =
  let engine, docref = engine_of_xml site_xml in
  ignore engine;
  let doc = docref.Rox_storage.Engine.doc in
  let candidates = Rox_storage.Kind_index.all (docref.Rox_storage.Engine.kinds) in
  (* An unsorted context violates the Table 1 node-sequence contract. *)
  match
    Contract.wrap (fun () ->
        Staircase.join ~sanitize:true ~doc ~axis:Axis.Descendant
          ~context:(col [| 5; 3 |]) candidates)
  with
  | Ok _ -> Alcotest.fail "sanitizer accepted an unsorted context"
  | Error d ->
    check_string "code" "RX301" d.Diagnostic.code;
    check_bool "is error" true (Diagnostic.is_error d)

let test_sanitizer_zero_cost_off () =
  (* A sanitizer that is off must not interfere: same result, no exception. *)
  let out = Nodeset.of_unsorted ~sanitize:false [| 4; 2; 4; 1 |] in
  check_bool "sorted" true (Nodeset.is_sorted_dedup out);
  check_int "len" 3 (Array.length out)

let test_report_ordering () =
  let diags =
    [
      Diagnostic.info "RX008" Diagnostic.Graph_loc "info first in input";
      Diagnostic.error "RX001" Diagnostic.Graph_loc "error second in input";
      Diagnostic.warning "RX004" Diagnostic.Graph_loc "warning third in input";
    ]
  in
  let r = Report.make ~subject:"t" diags in
  check_bool "has errors" true (Report.has_errors r);
  check_int "error count" 1 (Report.errors r);
  (match r.Report.diagnostics with
   | first :: _ -> check_string "errors sort first" "RX001" first.Diagnostic.code
   | [] -> Alcotest.fail "empty report");
  check_int "exit code" 1 (Report.exit_code [ r ])

let test_compile_rejects_disconnected () =
  (* Two documents, no join between them: compile must reject. *)
  let engine, _ = engine_of_trees [ random_tree_no_blank 5; random_tree_no_blank 6 ] in
  match
    Rox_xquery.Compile.compile_string engine
      {|for $a in doc("doc0.xml")//a, $b in doc("doc1.xml")//b return $a|}
  with
  | exception Rox_xquery.Compile.Rejected d ->
    check_string "code" "RX001" d.Diagnostic.code
  | _ -> Alcotest.fail "disconnected graph not rejected"

let suite =
  [
    Alcotest.test_case "graph: disconnected -> RX001" `Quick test_disconnected_graph;
    Alcotest.test_case "graph: clean -> no diagnostics" `Quick test_clean_graph;
    Alcotest.test_case "graph: equi-join on root -> RX005" `Quick test_equijoin_on_root;
    Alcotest.test_case "graph: cross-document step -> RX006" `Quick
      test_cross_document_step;
    Alcotest.test_case "graph: unfounded derived edge -> RX008" `Quick
      test_bad_derived_edge;
    Alcotest.test_case "plan: violations detected" `Quick test_plan_violations;
    Alcotest.test_case "trace: double execution -> RX102" `Quick
      test_trace_double_execution;
    Alcotest.test_case "trace: illegal order -> RX103" `Quick test_trace_illegal_order;
    Alcotest.test_case "trace: unweighted execution -> RX104" `Quick
      test_trace_unweighted_execution;
    Alcotest.test_case "trace: trivial edge executed -> RX107" `Quick
      test_trace_trivial_executed;
    Alcotest.test_case "trace: non-monotone cutoff -> RX105" `Quick
      test_trace_nonmonotone_cutoff;
    Alcotest.test_case "trace: unjustified chain stop -> RX105" `Quick
      test_trace_unjustified_stop;
    Alcotest.test_case "trace: disconnected chain -> RX106" `Quick
      test_trace_disconnected_chain;
    Alcotest.test_case "trace: cardinality accounting -> RX108" `Quick
      test_trace_cardinality_accounting;
    Alcotest.test_case "trace: clean ROX run -> no errors" `Quick test_trace_clean_run;
    Alcotest.test_case "sanitizer: unsorted context -> RX301" `Quick
      test_sanitizer_unsorted_nodeset;
    Alcotest.test_case "sanitizer: off by default, no interference" `Quick
      test_sanitizer_zero_cost_off;
    Alcotest.test_case "report: ordering, counts, exit code" `Quick test_report_ordering;
    Alcotest.test_case "compile: disconnected query rejected" `Quick
      test_compile_rejects_disconnected;
  ]
