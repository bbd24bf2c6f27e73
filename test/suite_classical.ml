open Rox_storage
open Rox_xquery
open Rox_joingraph
open Rox_classical
open Helpers

let dblp_setup ?(reduction = 400) names =
  let engine = Engine.create () in
  let params = { Rox_workload.Dblp.default_gen with reduction } in
  let loaded = Rox_workload.Dblp.load ~params engine (List.map Rox_workload.Dblp.find_venue names) in
  let uris = List.map (fun l -> Rox_workload.Dblp.uri_of l.Rox_workload.Dblp.venue) loaded in
  let compiled = Compile.compile_string engine (Rox_workload.Dblp.query_for uris) in
  (engine, compiled)

(* A fixed plan over the compiled query's graph, pruned to its outputs. *)
let execute (compiled : Compile.compiled) edges =
  Executor.execute_default ~outputs:(Tail.outputs compiled.Compile.tail) compiled.Compile.engine
    compiled.Compile.graph edges

(* ---------- Enumerate ---------- *)

let test_join_order_count () =
  check_int "18 orders for 4 docs" 18 (List.length (Enumerate.all_join_orders ~ndocs:4));
  (* 3 docs: 3 unordered pairs x 1 remaining = 3 linear, no bushy. *)
  check_int "3 orders for 3 docs" 3 (List.length (Enumerate.all_join_orders ~ndocs:3));
  check_int "1 order for 2 docs" 1 (List.length (Enumerate.all_join_orders ~ndocs:2))

let test_order_names () =
  check_string "linear" "(2-1)-3-4" (Enumerate.order_name (Enumerate.Linear [ 1; 0; 2; 3 ]));
  check_string "bushy" "(2-1)-(3-4)" (Enumerate.order_name (Enumerate.Bushy ((1, 0), (2, 3))));
  let names =
    List.map Enumerate.order_name (Enumerate.all_join_orders ~ndocs:4)
    |> List.sort_uniq compare
  in
  check_int "all order names distinct" 18 (List.length names)

let test_analyze_template () =
  let _, compiled = dblp_setup [ "VLDB"; "ICDE"; "SIGMOD"; "EDBT" ] in
  match Enumerate.analyze compiled.Compile.graph with
  | None -> Alcotest.fail "template not recognized"
  | Some t ->
    check_int "4 slots" 4 (Array.length t.Enumerate.slots);
    Array.iter
      (fun slot -> check_int "one step per doc" 1 (List.length slot.Enumerate.step_edges))
      t.Enumerate.slots

let test_analyze_rejects_xmark () =
  let engine = Engine.create () in
  ignore (Rox_workload.Xmark.generate ~params:(Rox_workload.Xmark.scaled 0.01) engine ~uri:"x.xml");
  let compiled =
    Compile.compile_string engine
      {|let $d := doc("x.xml")
for $o in $d//open_auction, $p in $d//person
where $o//bidder//personref/@person = $p/@id
return $o|}
  in
  check_bool "no template for XMark" true (Enumerate.analyze compiled.Compile.graph = None)

let test_plans_cover_all_edges () =
  let _, compiled = dblp_setup [ "VLDB"; "ICDE"; "SIGMOD"; "EDBT" ] in
  let template = Option.get (Enumerate.analyze compiled.Compile.graph) in
  let plans = Enumerate.canonical_plans compiled.Compile.graph template in
  check_int "54 canonical plans" 54 (List.length plans);
  List.iter
    (fun (_, _, edges) ->
      (* Executing the plan terminates with every edge executed. *)
      let run = execute compiled edges in
      check_bool "relation materialized" true (Relation.rows run.Executor.relation >= 0))
    plans

(* ---------- Executor correctness: every canonical plan = naive ---------- *)

let test_all_plans_same_answer () =
  let engine, compiled = dblp_setup [ "VLDB"; "ICDE"; "SIGMOD"; "EDBT" ] in
  let template = Option.get (Enumerate.analyze compiled.Compile.graph) in
  let naive =
    Naive.eval_query engine compiled.Compile.query |> List.map snd
  in
  List.iter
    (fun (order, placement, edges) ->
      let nodes, _ = Executor.answer_default compiled edges in
      check_bool
        (Printf.sprintf "plan %s/%s = naive" (Enumerate.order_name order)
           (Enumerate.placement_name placement))
        true
        (Array.to_list nodes = naive))
    (Enumerate.canonical_plans compiled.Compile.graph template)

let test_plan_error_on_incomplete () =
  let _, compiled = dblp_setup [ "VLDB"; "ICDE" ] in
  match execute compiled [] with
  | exception Rox_core.Driver.Plan_error _ -> ()
  | _ -> Alcotest.fail "empty plan must fail"

let test_plan_error_on_duplicate () =
  let _, compiled = dblp_setup [ "VLDB"; "ICDE" ] in
  let template = Option.get (Enumerate.analyze compiled.Compile.graph) in
  let edges =
    Enumerate.plan_edges compiled.Compile.graph template
      ~order:(Enumerate.Linear [ 0; 1 ]) ~placement:Enumerate.SJ
  in
  (* The whole plan twice, and the plan with its equi-join repeated: an
     executed equi-join is not one its own execution implied. *)
  let equijoins = List.filter (fun (e : Edge.t) -> e.Edge.op = Edge.Equijoin) edges in
  List.iter
    (fun plan ->
      match execute compiled plan with
      | exception Rox_core.Driver.Plan_error _ -> ()
      | _ -> Alcotest.fail "duplicated plan must fail")
    [ edges @ edges; edges @ equijoins ]

(* ---------- Classical optimizer ---------- *)

let test_classical_smallest_first () =
  let engine, compiled = dblp_setup [ "VLDB"; "ICDE"; "SIGMOD"; "EDBT" ] in
  let template = Option.get (Enumerate.analyze compiled.Compile.graph) in
  let sizes =
    Array.to_list template.Enumerate.slots
    |> List.map (fun s -> Classical_opt.input_size engine compiled.Compile.graph s)
  in
  match Classical_opt.join_order engine compiled.Compile.graph template with
  | Enumerate.Linear order ->
    let ordered_sizes = List.map (fun d -> List.nth sizes d) order in
    check_bool "ascending input sizes" true
      (List.sort compare ordered_sizes = ordered_sizes)
  | Enumerate.Bushy _ -> Alcotest.fail "classical order must be linear"

let test_input_size_exact () =
  let engine, compiled = dblp_setup [ "VLDB"; "ICDE" ] in
  let template = Option.get (Enumerate.analyze compiled.Compile.graph) in
  Array.iter
    (fun slot ->
      let size = Classical_opt.input_size engine compiled.Compile.graph slot in
      (* Equal to the distinct text-node count under author elements. *)
      check_bool "positive" true (size > 0))
    template.Enumerate.slots

let test_static_order_executes () =
  let engine = Engine.create () in
  ignore (Rox_workload.Xmark.generate ~params:(Rox_workload.Xmark.scaled 0.02) engine ~uri:"x.xml");
  let src =
    {|let $d := doc("x.xml")
for $o in $d//open_auction[.//current/text() < 145],
    $p in $d//person[.//province]
where $o//bidder//personref/@person = $p/@id
return $o|}
  in
  let compiled = Compile.compile_string engine src in
  let order = Classical_opt.static_order engine compiled.Compile.graph in
  let nodes, _ = Executor.answer_default compiled order in
  let naive = Naive.eval_query engine compiled.Compile.query |> List.map snd in
  check_bool "static order correct" true (Array.to_list nodes = naive)

(* ---------- Cross-check: every plan work >= some positive cost,
   and executor join_rows accounting is consistent ---------- *)

let test_join_rows_accounting () =
  let _, compiled = dblp_setup [ "VLDB"; "ICDE"; "SIGMOD"; "EDBT" ] in
  let template = Option.get (Enumerate.analyze compiled.Compile.graph) in
  let edges =
    Enumerate.plan_edges compiled.Compile.graph template
      ~order:(Enumerate.Linear [ 0; 1; 2; 3 ]) ~placement:Enumerate.SJ
  in
  let run = execute compiled edges in
  let manual_join =
    List.fold_left
      (fun acc (id, rows) ->
        match (Graph.edge compiled.Compile.graph id).Edge.op with
        | Edge.Equijoin -> acc + rows
        | Edge.Step _ -> acc)
      0 run.Executor.edge_rows
  in
  check_int "join_rows consistent" manual_join
    (Executor.join_rows compiled.Compile.graph run)

let suite =
  [
    Alcotest.test_case "join order count" `Quick test_join_order_count;
    Alcotest.test_case "order names" `Quick test_order_names;
    Alcotest.test_case "analyze template" `Quick test_analyze_template;
    Alcotest.test_case "analyze rejects XMark" `Quick test_analyze_rejects_xmark;
    Alcotest.test_case "plans cover all edges" `Quick test_plans_cover_all_edges;
    Alcotest.test_case "all 54 plans = naive" `Quick test_all_plans_same_answer;
    Alcotest.test_case "plan error incomplete" `Quick test_plan_error_on_incomplete;
    Alcotest.test_case "plan error duplicate" `Quick test_plan_error_on_duplicate;
    Alcotest.test_case "classical smallest-first" `Quick test_classical_smallest_first;
    Alcotest.test_case "input size positive" `Quick test_input_size_exact;
    Alcotest.test_case "static order executes" `Quick test_static_order_executes;
    Alcotest.test_case "join rows accounting" `Quick test_join_rows_accounting;
  ]
