(* Tests for the Section 6 extensions: approximate (sample-driven)
   execution, the path synopsis, and the mid-query
   re-optimization baseline. *)

open Rox_storage
open Rox_xquery
open Rox_core
open Rox_classical
open Helpers

let session_with adjust = Session.create ~config:(adjust (Session.default_config ())) ()

let q1 =
  {|let $d := doc("xmark.xml")
for $o in $d//open_auction[.//current/text() < 145],
    $p in $d//person[.//province]
where $o//bidder//personref/@person = $p/@id
return $o|}

(* ---------- Default physical choices ---------- *)

let test_default_answer_naive () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine q1 in
  let answer, _ = Optimizer.answer_default compiled in
  let naive = Naive.eval_query engine compiled.Compile.query |> List.map snd in
  check_bool "default answer = naive" true (Array.to_list answer = naive)

let test_runtime_runs_from_empty_side () =
  (* One side empty: the edge takes the empty side as context, so it costs
     exactly the From_v2 kernel and strictly less than From_v1. *)
  let open Rox_joingraph in
  let engine, _ = engine_of_xml "<r><a><b/></a><a><b/></a><a/></r>" in
  let graph = Graph.create () in
  let a = Graph.add_vertex graph ~doc_id:0 (Vertex.Element "a") in
  let z = Graph.add_vertex graph ~doc_id:0 (Vertex.Element "zz") in
  let e =
    Graph.add_edge graph ~v1:a.Vertex.id ~v2:z.Vertex.id (Edge.Step Rox_algebra.Axis.Child)
  in
  let t1 = Exec.vertex_domain engine a and t2 = Exec.vertex_domain engine z in
  let units f =
    let c = Rox_algebra.Cost.new_counter () in
    f (Rox_algebra.Cost.execution_meter c);
    Rox_algebra.Cost.read c Rox_algebra.Cost.Execution
  in
  let kernel dir =
    units (fun meter ->
        ignore
          (Exec.full_pairs ~sanitize ~meter ~variant:(Exec.Step_from dir) engine graph e
             ~t1 ~t2
            : Exec.pairs))
  in
  let rt = Runtime.create ~outputs:(Graph.vertex_ids graph) engine graph in
  let run =
    units (fun meter -> ignore (Runtime.execute_edge ~meter rt e : Runtime.exec_info))
  in
  check_int "charged as the From_v2 kernel" (kernel Exec.From_v2) run;
  check_bool "below the From_v1 kernel" true (run < kernel Exec.From_v1)

(* ---------- Approximate (sample-driven) execution ---------- *)

let test_approximate_subset () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine q1 in
  let exact, _ = Optimizer.answer_default compiled in
  let approx, _ =
    Optimizer.answer
      (session_with (fun c -> { c with Session.table_fraction = Some 0.5 }))
      compiled
  in
  let exact_set = List.sort_uniq compare (Array.to_list exact) in
  let approx_set = List.sort_uniq compare (Array.to_list approx) in
  check_bool "approximate answer is a subset" true
    (List.for_all (fun n -> List.mem n exact_set) approx_set);
  check_bool "fraction thins the work" true (Array.length approx <= Array.length exact)

let test_approximate_full_fraction_exact () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine q1 in
  let exact, _ = Optimizer.answer_default compiled in
  let approx, _ =
    Optimizer.answer
      (session_with (fun c -> { c with Session.table_fraction = Some 1.0 }))
      compiled
  in
  check_bool "fraction 1.0 = exact" true (exact = approx)

(* ---------- Synopsis ---------- *)

let synopsis_of xml =
  let _, r = engine_of_xml xml in
  (Synopsis.build r, r)

let test_synopsis_counts () =
  let syn, _ =
    synopsis_of
      {|<lib><b year="1"><a>x</a><a>y</a></b><b><a>z</a><c><a>w</a></c></b></lib>|}
  in
  check_int "b count" 2 (Synopsis.element_count syn "b");
  check_int "a count" 4 (Synopsis.element_count syn "a");
  check_int "missing" 0 (Synopsis.element_count syn "zz");
  check_int "b/a pairs" 3 (Synopsis.child_pair_count syn ~parent:"b" ~child:"a");
  check_int "b//a pairs" 4 (Synopsis.desc_pair_count syn ~anc:"b" ~desc:"a");
  check_int "lib//a pairs" 4 (Synopsis.desc_pair_count syn ~anc:"lib" ~desc:"a");
  check_int "c/a" 1 (Synopsis.child_pair_count syn ~parent:"c" ~child:"a");
  check_int "texts under a" 4 (Synopsis.text_child_count syn ~parent:"a");
  check_int "@year on b" 1 (Synopsis.attr_count syn ~elem:"b" ~attr:"year")

let test_synopsis_estimates () =
  (* Uniform fan-out: estimates should be near-exact. *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<r>";
  for i = 0 to 99 do
    Buffer.add_string buf
      (Printf.sprintf "<item><price>%d</price><tag/><tag/></item>" (i + 1))
  done;
  Buffer.add_string buf "</r>";
  let syn, _ = synopsis_of (Buffer.contents buf) in
  let open Rox_joingraph in
  let est =
    Synopsis.estimate_step syn ~context_card:100.0 ~context:(Vertex.Element "item")
      ~axis:Rox_algebra.Axis.Child ~target:(Vertex.Element "tag")
  in
  check_bool "child fan-out exact on uniform data" true (abs_float (est -. 200.0) < 1e-6);
  let est_half =
    Synopsis.estimate_step syn ~context_card:50.0 ~context:(Vertex.Element "item")
      ~axis:Rox_algebra.Axis.Child ~target:(Vertex.Element "tag")
  in
  check_bool "scales with context estimate" true (abs_float (est_half -. 100.0) < 1e-6);
  (* Range selectivity from the histogram: prices uniform on [1,100]. *)
  let sel = Synopsis.selectivity syn ~elem:"price" (Rox_algebra.Selection.Le 50.0) in
  check_bool "about half below the median" true (sel > 0.4 && sel < 0.6);
  let sel_all = Synopsis.selectivity syn ~elem:"price" (Rox_algebra.Selection.Ge 0.0) in
  check_bool "everything passes an open bound" true (sel_all > 0.99);
  let sel_eq = Synopsis.selectivity syn ~elem:"price" (Rox_algebra.Selection.Eq "13") in
  check_bool "equality ~ 1/distinct" true (abs_float (sel_eq -. 0.01) < 1e-6)

let test_synopsis_desc_step () =
  let syn, _ = synopsis_of "<r><a><x/><b><x/><x/></b></a><a/></r>" in
  let open Rox_joingraph in
  let est =
    Synopsis.estimate_step syn ~context_card:2.0 ~context:(Vertex.Element "a")
      ~axis:Rox_algebra.Axis.Descendant ~target:(Vertex.Element "x")
  in
  check_bool "descendant pairs exact" true (abs_float (est -. 3.0) < 1e-6)

(* ---------- Mid-query re-optimization ---------- *)

let dblp_compiled () =
  let engine = Engine.create () in
  let params = { Rox_workload.Dblp.default_gen with Rox_workload.Dblp.reduction = 400 } in
  ignore
    (Rox_workload.Dblp.load ~params engine
       (List.map Rox_workload.Dblp.find_venue [ "VLDB"; "ICDE"; "SIGMOD"; "EDBT" ]));
  Compile.compile_string engine
    (Rox_workload.Dblp.query_for [ "VLDB.xml"; "ICDE.xml"; "SIGMOD.xml"; "EDBT.xml" ])

let test_midquery_correct_dblp () =
  let compiled = dblp_compiled () in
  let nodes, _, replans = Midquery.answer_default compiled in
  let naive =
    Naive.eval_query compiled.Compile.engine compiled.Compile.query |> List.map snd
  in
  check_bool "midquery = naive on DBLP" true (Array.to_list nodes = naive);
  check_bool "replans bounded" true (replans <= 20)

let test_midquery_correct_xmark () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine q1 in
  let nodes, _, _ = Midquery.answer_default compiled in
  let naive = Naive.eval_query engine compiled.Compile.query |> List.map snd in
  check_bool "midquery = naive on XMark" true (Array.to_list nodes = naive)

let test_synopsis_order_covers () =
  let compiled = dblp_compiled () in
  let order = Midquery.synopsis_order compiled.Compile.engine compiled.Compile.graph in
  let nodes, _ = Executor.answer_default compiled order in
  let naive =
    Naive.eval_query compiled.Compile.engine compiled.Compile.query |> List.map snd
  in
  check_bool "synopsis static order = naive" true (Array.to_list nodes = naive)

let test_midquery_replans_on_surprise () =
  (* Build data where the synopsis prediction is wildly wrong because of a
     correlation: all 'b' children live under the a's that also have 'c'. *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<r>";
  for i = 0 to 199 do
    if i < 10 then Buffer.add_string buf "<a><c/><b/><b/><b/><b/><b/></a>"
    else Buffer.add_string buf "<a/>"
  done;
  Buffer.add_string buf "</r>";
  let engine, _ = engine_of_xml (Buffer.contents buf) in
  let compiled =
    Compile.compile_string engine {|for $a in doc("doc0.xml")//a[./c][./b] return $a|}
  in
  let nodes, _, _ = Midquery.answer_default compiled in
  check_int "10 selective results" 10 (Array.length nodes)

let suite =
  [
    Alcotest.test_case "default: answer = naive" `Quick test_default_answer_naive;
    Alcotest.test_case "runtime: runs from empty side" `Quick test_runtime_runs_from_empty_side;
    Alcotest.test_case "approximate: subset" `Quick test_approximate_subset;
    Alcotest.test_case "approximate: fraction 1 exact" `Quick test_approximate_full_fraction_exact;
    Alcotest.test_case "synopsis counts" `Quick test_synopsis_counts;
    Alcotest.test_case "synopsis estimates" `Quick test_synopsis_estimates;
    Alcotest.test_case "synopsis descendant step" `Quick test_synopsis_desc_step;
    Alcotest.test_case "midquery = naive (DBLP)" `Quick test_midquery_correct_dblp;
    Alcotest.test_case "midquery = naive (XMark)" `Quick test_midquery_correct_xmark;
    Alcotest.test_case "synopsis order covers" `Quick test_synopsis_order_covers;
    Alcotest.test_case "midquery replans on surprise" `Quick test_midquery_replans_on_surprise;
  ]
