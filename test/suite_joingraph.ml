open Rox_algebra
open Rox_joingraph
open Helpers

(* A small two-document setup joined on text values. *)
let two_doc_engine () =
  engine_of_trees
    [
      Rox_xmldom.Xml_parser.parse_string "<l><a>x</a><a>y</a><a>x</a></l>";
      Rox_xmldom.Xml_parser.parse_string "<r><b>x</b><b>z</b></r>";
    ]
  |> fst

(* ---------- Graph ---------- *)

let test_graph_basics () =
  let g = Graph.create () in
  let v0 = Graph.add_vertex g ~doc_id:0 Vertex.Root in
  let v1 = Graph.add_vertex g ~doc_id:0 (Vertex.Element "a") in
  let v2 = Graph.add_vertex g ~doc_id:0 (Vertex.Text None) in
  let e0 = Graph.add_edge g ~v1:v0.Vertex.id ~v2:v1.Vertex.id (Edge.Step Axis.Descendant) in
  let e1 = Graph.add_edge g ~v1:v1.Vertex.id ~v2:v2.Vertex.id (Edge.Step Axis.Child) in
  check_int "vertices" 3 (Graph.vertex_count g);
  check_int "edges" 2 (Graph.edge_count g);
  check_int "other end" v0.Vertex.id (Edge.other_end e0 v1.Vertex.id);
  check_bool "touches" true (Edge.touches e1 v2.Vertex.id);
  check_int "incident v1" 2 (List.length (Graph.incident g v1.Vertex.id));
  check_bool "connected" true (Graph.connected g);
  check_bool "find edge" true (Graph.find_edge g v0.Vertex.id v1.Vertex.id <> None);
  check_bool "find missing" true (Graph.find_edge g v0.Vertex.id v2.Vertex.id = None);
  (match Graph.add_edge g ~v1:v0.Vertex.id ~v2:v0.Vertex.id Edge.Equijoin with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "self loop must fail")

let test_equi_closure () =
  let g = Graph.create () in
  let vs = Array.init 4 (fun _ -> (Graph.add_vertex g ~doc_id:0 (Vertex.Text None)).Vertex.id) in
  ignore (Graph.add_edge g ~v1:vs.(0) ~v2:vs.(1) Edge.Equijoin);
  ignore (Graph.add_edge g ~v1:vs.(0) ~v2:vs.(2) Edge.Equijoin);
  ignore (Graph.add_edge g ~v1:vs.(0) ~v2:vs.(3) Edge.Equijoin);
  let added = Graph.equi_closure g in
  (* 1-2, 1-3, 2-3 derived: C(4,2) - 3 = 3 new. *)
  check_int "three derived" 3 (List.length added);
  check_bool "all derived flagged" true (List.for_all (fun e -> e.Edge.derived) added);
  check_int "idempotent" 0 (List.length (Graph.equi_closure g))

let test_vertex_labels () =
  check_string "element" "person"
    (Vertex.label { Vertex.id = 0; doc_id = 0; annot = Vertex.Element "person" });
  check_string "text pred" "text() < 145"
    (Vertex.label { Vertex.id = 0; doc_id = 0; annot = Vertex.Text (Some (Selection.Lt 145.0)) });
  check_string "attr" "@id"
    (Vertex.label { Vertex.id = 0; doc_id = 0; annot = Vertex.Attr ("id", None) });
  check_bool "equality value" true
    (Vertex.equality_value
       { Vertex.id = 0; doc_id = 0; annot = Vertex.Text (Some (Selection.Eq "v")) }
    = Some "v")

(* ---------- Exec: vertex domains ---------- *)

let test_vertex_domain () =
  let engine, _ = engine_of_xml "<a><n>10</n><n>200</n><b x=\"7\"/><b x=\"9\"/></a>" in
  let dom annot = Exec.vertex_domain engine { Vertex.id = 0; doc_id = 0; annot } in
  check_bool "root" true (arr (dom Vertex.Root) = [| 0 |]);
  check_int "element" 2 (clen (dom (Vertex.Element "n")));
  check_int "missing element" 0 (clen (dom (Vertex.Element "zz")));
  check_int "all texts" 2 (clen (dom (Vertex.Text None)));
  check_int "text eq" 1 (clen (dom (Vertex.Text (Some (Selection.Eq "10")))));
  check_int "text lt strict" 1 (clen (dom (Vertex.Text (Some (Selection.Lt 200.0)))));
  check_int "text le" 2 (clen (dom (Vertex.Text (Some (Selection.Le 200.0)))));
  check_int "text gt strict" 0 (clen (dom (Vertex.Text (Some (Selection.Gt 200.0)))));
  check_int "attrs" 2 (clen (dom (Vertex.Attr ("x", None))));
  check_int "attr eq" 1 (clen (dom (Vertex.Attr ("x", Some (Selection.Eq "7")))));
  check_int "attr range" 1 (clen (dom (Vertex.Attr ("x", Some (Selection.Gt 8.0)))));
  (* The count comes from index counts, never from the domain itself. *)
  List.iter
    (fun annot ->
      let v = { Vertex.id = 0; doc_id = 0; annot } in
      check_int ("count = domain length: " ^ Vertex.label v)
        (clen (Exec.vertex_domain engine v))
        (Exec.vertex_domain_count engine v))
    [
      Vertex.Root; Vertex.Element "n"; Vertex.Element "zz"; Vertex.Text None;
      Vertex.Text (Some (Selection.Eq "10")); Vertex.Text (Some (Selection.Eq "none"));
      Vertex.Text (Some (Selection.Lt 200.0)); Vertex.Text (Some (Selection.Le 200.0));
      Vertex.Text (Some (Selection.Gt 10.0)); Vertex.Text (Some (Selection.Ge 10.0));
      Vertex.Text (Some (Selection.Between (5.0, 150.0)));
      Vertex.Attr ("x", None); Vertex.Attr ("zz", None);
      Vertex.Attr ("x", Some (Selection.Eq "7")); Vertex.Attr ("x", Some (Selection.Eq "8"));
      Vertex.Attr ("x", Some (Selection.Gt 8.0)); Vertex.Attr ("x", Some (Selection.Le 9.0));
    ]

let test_can_index_init () =
  let can annot = Exec.can_index_init { Vertex.id = 0; doc_id = 0; annot } in
  check_bool "root" true (can Vertex.Root);
  check_bool "element" true (can (Vertex.Element "a"));
  check_bool "text eq" true (can (Vertex.Text (Some (Selection.Eq "v"))));
  check_bool "attr eq" true (can (Vertex.Attr ("x", Some (Selection.Eq "v"))));
  check_bool "bare text" false (can (Vertex.Text None));
  check_bool "range text" false (can (Vertex.Text (Some (Selection.Lt 5.0))))

(* ---------- Exec: full pairs, both directions ---------- *)

let step_graph engine =
  ignore engine;
  let g = Graph.create () in
  let a = Graph.add_vertex g ~doc_id:0 (Vertex.Element "a") in
  let t = Graph.add_vertex g ~doc_id:0 (Vertex.Text None) in
  let e = Graph.add_edge g ~v1:a.Vertex.id ~v2:t.Vertex.id (Edge.Step Axis.Child) in
  (g, a, t, e)

let test_full_pairs_directions () =
  let engine = two_doc_engine () in
  let g, a, t, e = step_graph engine in
  let t1 = Exec.vertex_domain engine a and t2 = Exec.vertex_domain engine t in
  let pairs dir = Exec.full_pairs ~sanitize ~variant:(Exec.Step_from dir) engine g e ~t1 ~t2 in
  let fwd = pairs Exec.From_v1 and rev = pairs Exec.From_v2 in
  let norm p =
    List.sort compare
      (List.combine (Array.to_list (arr p.Exec.left)) (Array.to_list (arr p.Exec.right)))
  in
  check_int "three text children" 3 (Exec.pair_count fwd);
  check_bool "reverse direction same pairs" true (norm fwd = norm rev)

let test_sampled_step () =
  let engine = two_doc_engine () in
  let g, a, t, e = step_graph engine in
  let sample = Exec.vertex_domain engine a in
  ignore t;
  let cut =
    Exec.sampled ~sanitize engine g e ~outer:Exec.From_v1 ~sample ~inner_table:None ~limit:2
  in
  check_int "cut at 2" 2 cut.Cutoff.produced;
  check_bool "not completed" true (not cut.Cutoff.completed)

let test_sampled_equijoin () =
  let engine = two_doc_engine () in
  let g = Graph.create () in
  let ta = Graph.add_vertex g ~doc_id:0 (Vertex.Text None) in
  let tb = Graph.add_vertex g ~doc_id:1 (Vertex.Text None) in
  let e = Graph.add_edge g ~v1:ta.Vertex.id ~v2:tb.Vertex.id Edge.Equijoin in
  let sample = Exec.vertex_domain engine (Graph.vertex g ta.Vertex.id) in
  let cut =
    Exec.sampled ~sanitize engine g e ~outer:Exec.From_v1 ~sample ~inner_table:None
      ~limit:100
  in
  (* "x" appears twice in doc0 and once in doc1 -> 2 pairs. *)
  check_int "two matches" 2 cut.Cutoff.produced;
  check_bool "completed" true cut.Cutoff.completed

(* ---------- Relation ---------- *)

let pairs left right =
  { Exec.left = col (Array.of_list left); right = col (Array.of_list right) }

let test_relation_basics () =
  let r = Relation.of_pairs ~v1:0 ~v2:1 (pairs [ 1; 1; 2 ] [ 10; 11; 10 ]) in
  check_int "rows" 3 (Relation.rows r);
  check_int "width" 2 (Relation.width r);
  check_bool "column v1" true (arr (Relation.column r 0) = [| 1; 1; 2 |]);
  check_bool "distinct v1" true
    (arr (Rox_util.Column.sorted_dedup (Relation.column r 0)) = [| 1; 2 |]);
  check_bool "has vertex" true (Relation.has_vertex r 1);
  check_bool "hasn't vertex" false (Relation.has_vertex r 9)

let test_relation_extend () =
  let r = Relation.of_pairs ~v1:0 ~v2:1 (pairs [ 1; 2 ] [ 10; 11 ]) in
  (* Extend on column 1: 10 -> {100, 101}; 11 -> {} *)
  let r2 = Relation.extend ~sanitize r ~on:1 ~new_vertex:2 (pairs [ 10; 10 ] [ 100; 101 ]) in
  check_int "rows" 2 (Relation.rows r2);
  let distinct v = arr (Rox_util.Column.sorted_dedup (Relation.column r2 v)) in
  check_bool "new column" true (distinct 2 = [| 100; 101 |]);
  check_bool "old rows filtered" true (distinct 0 = [| 1 |])

let test_relation_fuse () =
  let left = Relation.of_pairs ~v1:0 ~v2:1 (pairs [ 1; 2 ] [ 10; 20 ]) in
  let right = Relation.of_pairs ~v1:2 ~v2:3 (pairs [ 100; 200 ] [ 7; 8 ]) in
  (* Join column 1 with column 2 via pairs (10,100) and (20,999/no). *)
  let fused = Relation.fuse ~sanitize left right ~on_left:1 ~on_right:2 (pairs [ 10 ] [ 100 ]) in
  check_int "one row" 1 (Relation.rows fused);
  check_int "width 4" 4 (Relation.width fused);
  check_bool "values" true (arr (Relation.column fused 3) = [| 7 |])

let test_relation_filter_pairs () =
  let r = Relation.of_pairs ~v1:0 ~v2:1 (pairs [ 1; 2; 3 ] [ 10; 20; 30 ]) in
  let filtered = Relation.filter_pairs ~sanitize r ~c1:0 ~c2:1 (pairs [ 1; 3 ] [ 10; 30 ]) in
  check_int "two rows" 2 (Relation.rows filtered);
  check_bool "kept" true (arr (Relation.column filtered 0) = [| 1; 3 |])

let test_relation_distinct_sort_project () =
  let r = Relation.of_pairs ~v1:0 ~v2:1 (pairs [ 2; 1; 2 ] [ 20; 10; 20 ]) in
  let d = Relation.distinct ~sanitize r in
  check_int "distinct rows" 2 (Relation.rows d);
  let s = Relation.sort_rows ~sanitize d in
  check_bool "sorted" true (arr (Relation.column s 0) = [| 1; 2 |]);
  let p = Relation.project ~sanitize s [| 1 |] in
  check_int "projected width" 1 (Relation.width p);
  check_bool "projected col" true (arr (Relation.column p 1) = [| 10; 20 |])

let test_relation_cross () =
  let a = Relation.singleton ~vertex:0 (col [| 1; 2 |]) in
  let b = Relation.singleton ~vertex:1 (col [| 7; 8; 9 |]) in
  let c = Relation.cross ~sanitize a b in
  check_int "6 rows" 6 (Relation.rows c);
  check_int "width 2" 2 (Relation.width c)

(* Edge shapes through every columnar kernel, checked bit-for-bit
   against the row-major reference [Relation.Naive]: zero-row, one-row
   and duplicate-heavy relations exercise the empty allocations, the
   sorted fast paths and the CSR pair grouping. *)
let test_relation_kernels_vs_naive () =
  let module N = Relation.Naive in
  let agree name got ref_ =
    check_bool name true (Relation.equal got (N.to_relation ref_))
  in
  let check_shape name l r =
    let la = Array.of_list l and ra = Array.of_list r in
    let naive = N.of_pairs ~v1:0 ~v2:1 ~left:la ~right:ra in
    let rel = Relation.of_pairs ~v1:0 ~v2:1 (pairs l r) in
    let pl = [| 3; 5; 3 |] and pr = [| 100; 101; 102 |] in
    agree (name ^ ": extend")
      (Relation.extend ~sanitize rel ~on:0 ~new_vertex:2 (pairs [ 3; 5; 3 ] [ 100; 101; 102 ]))
      (N.extend naive ~on:0 ~new_vertex:2 ~left:pl ~right:pr);
    let naive_o = N.of_pairs ~v1:3 ~v2:4 ~left:[| 9; 7 |] ~right:[| 40; 41 |] in
    let rel_o = Relation.of_pairs ~v1:3 ~v2:4 (pairs [ 9; 7 ] [ 40; 41 ]) in
    agree (name ^ ": fuse")
      (Relation.fuse ~sanitize rel rel_o ~on_left:1 ~on_right:3 (pairs [ 9; 7 ] [ 9; 9 ]))
      (N.fuse naive naive_o ~on_left:1 ~on_right:3 ~pl:[| 9; 7 |] ~pr:[| 9; 9 |]);
    agree (name ^ ": filter_pairs")
      (Relation.filter_pairs ~sanitize rel ~c1:0 ~c2:1 (pairs [ 3; 5 ] [ 9; 7 ]))
      (N.filter_pairs naive ~c1:0 ~c2:1 ~left:[| 3; 5 |] ~right:[| 9; 7 |]);
    agree (name ^ ": distinct") (Relation.distinct ~sanitize rel) (N.distinct naive);
    agree (name ^ ": sort_rows") (Relation.sort_rows ~sanitize rel) (N.sort_rows naive);
    agree (name ^ ": project") (Relation.project ~sanitize rel [| 1 |]) (N.project naive [| 1 |]);
    agree (name ^ ": cross") (Relation.cross ~sanitize rel rel_o) (N.cross naive naive_o)
  in
  check_shape "zero-row" [] [];
  check_shape "one-row" [ 3 ] [ 9 ];
  check_shape "dup-heavy" [ 3; 3; 3; 3 ] [ 9; 9; 9; 9 ];
  (* One-column relation: singleton's sorted flag makes distinct and
     sort_rows no-ops and puts extend on its merge path. *)
  let nodes = [| 2; 5; 9 |] in
  let one_n = N.singleton ~vertex:0 nodes in
  let one = Relation.singleton ~vertex:0 (col nodes) in
  agree "one-column: distinct" (Relation.distinct ~sanitize one) (N.distinct one_n);
  agree "one-column: sort_rows" (Relation.sort_rows ~sanitize one) (N.sort_rows one_n);
  agree "one-column: extend (merge path)"
    (Relation.extend ~sanitize one ~on:0 ~new_vertex:1 (pairs [ 2; 2; 9 ] [ 7; 8; 1 ]))
    (N.extend one_n ~on:0 ~new_vertex:1 ~left:[| 2; 2; 9 |] ~right:[| 7; 8; 1 |])

let test_relation_iter_rows () =
  let r = Relation.of_pairs ~v1:0 ~v2:1 (pairs [ 1; 2 ] [ 10; 20 ]) in
  let acc = ref [] in
  Relation.iter_rows r (fun row -> acc := Array.copy row :: !acc);
  check_int "two rows" 2 (List.length !acc)

(* ---------- Runtime ---------- *)

(* doc0: <l><a>x</a><a>y</a><a>x</a></l>, doc1: <r><b>x</b><b>z</b></r> *)
let small_join_graph engine =
  ignore engine;
  let g = Graph.create () in
  let root0 = Graph.add_vertex g ~doc_id:0 Vertex.Root in
  let a = Graph.add_vertex g ~doc_id:0 (Vertex.Element "a") in
  let ta = Graph.add_vertex g ~doc_id:0 (Vertex.Text None) in
  let root1 = Graph.add_vertex g ~doc_id:1 Vertex.Root in
  let b = Graph.add_vertex g ~doc_id:1 (Vertex.Element "b") in
  let tb = Graph.add_vertex g ~doc_id:1 (Vertex.Text None) in
  ignore (Graph.add_edge g ~v1:root0.Vertex.id ~v2:a.Vertex.id (Edge.Step Axis.Descendant));
  ignore (Graph.add_edge g ~v1:root1.Vertex.id ~v2:b.Vertex.id (Edge.Step Axis.Descendant));
  let sa = Graph.add_edge g ~v1:a.Vertex.id ~v2:ta.Vertex.id (Edge.Step Axis.Child) in
  let sb = Graph.add_edge g ~v1:b.Vertex.id ~v2:tb.Vertex.id (Edge.Step Axis.Child) in
  let j = Graph.add_edge g ~v1:ta.Vertex.id ~v2:tb.Vertex.id Edge.Equijoin in
  (g, [ sa; sb; j ], (a, ta, b, tb))

let test_runtime_trivial_edges () =
  let engine = two_doc_engine () in
  let g, _, _ = small_join_graph engine in
  let rt = Runtime.create ~outputs:(Graph.vertex_ids g) engine g in
  (* The two root-descendant edges are pre-executed. *)
  check_int "2 trivial pre-executed" 3 (List.length (Runtime.unexecuted_edges rt));
  check_bool "not all executed" true (not (Runtime.all_executed rt))

let test_runtime_execute_all_orders () =
  (* Any execution order yields the same final relation contents. *)
  let final_rows order_sel =
    let engine = two_doc_engine () in
    let g, edges, _ = small_join_graph engine in
    let rt = Runtime.create ~outputs:(Graph.vertex_ids g) engine g in
    List.iter (fun e -> ignore (Runtime.execute_edge rt e : Runtime.exec_info)) (order_sel edges);
    let rel = Runtime.final_relation rt in
    let rows = ref [] in
    Relation.iter_rows rel (fun row -> rows := Array.to_list row :: !rows);
    (* Normalize column order by sorting vertex ids with cells. *)
    let verts = Array.to_list (Relation.vertices rel) in
    List.map (fun row -> List.sort compare (List.combine verts row)) !rows
    |> List.sort compare
  in
  let r1 = final_rows (fun l -> l) in
  let r2 = final_rows List.rev in
  check_bool "same rows both orders" true (r1 = r2);
  check_bool "expected row count" true (List.length r1 = 2) (* two 'x' left x one 'x' right *)

let test_runtime_tables_shrink () =
  let engine = two_doc_engine () in
  let g, edges, (a, ta, _, tb) = small_join_graph engine in
  let rt = Runtime.create ~outputs:(Graph.vertex_ids g) engine g in
  match edges with
  | [ sa; sb; j ] ->
    ignore (Runtime.execute_edge rt sa : Runtime.exec_info);
    check_int "T(ta) full" 3 (clen (Option.get (Runtime.table rt ta.Vertex.id)));
    ignore (Runtime.execute_edge rt sb : Runtime.exec_info);
    let info = Runtime.execute_edge rt j in
    (* x joins x: left has two x texts, right one. *)
    check_int "pairs" 2 info.Runtime.pair_count;
    check_int "T(ta) reduced" 2 (clen (Option.get (Runtime.table rt ta.Vertex.id)));
    check_int "T(tb) reduced" 1 (clen (Option.get (Runtime.table rt tb.Vertex.id)));
    check_int "T(a) reduced" 2 (clen (Option.get (Runtime.table rt a.Vertex.id)));
    check_bool "a flagged changed" true (List.mem a.Vertex.id info.Runtime.changed);
    check_bool "all executed" true (Runtime.all_executed rt)
  | _ -> Alcotest.fail "unexpected edges"

let test_runtime_double_execute () =
  let engine = two_doc_engine () in
  let g, edges, _ = small_join_graph engine in
  let rt = Runtime.create ~outputs:(Graph.vertex_ids g) engine g in
  let e = List.hd edges in
  ignore (Runtime.execute_edge rt e : Runtime.exec_info);
  match Runtime.execute_edge rt e with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double execution must fail"

let test_runtime_blowup () =
  let engine = two_doc_engine () in
  let g, edges, _ = small_join_graph engine in
  let rt =
    Runtime.create
      ~config:{ (Runtime.default_config ()) with Runtime.max_rows = 1 }
      ~outputs:(Graph.vertex_ids g) engine g
  in
  match List.iter (fun e -> ignore (Runtime.execute_edge rt e : Runtime.exec_info)) edges with
  | exception Runtime.Blowup _ -> ()
  | _ -> Alcotest.fail "expected blowup with max_rows=1"

let test_runtime_implied_equijoins () =
  (* A triangle of equi-joins: executing two implies the third. *)
  let engine =
    engine_of_trees
      [
        Rox_xmldom.Xml_parser.parse_string "<l><a>x</a></l>";
        Rox_xmldom.Xml_parser.parse_string "<r><b>x</b></r>";
        Rox_xmldom.Xml_parser.parse_string "<s><c>x</c></s>";
      ]
    |> fst
  in
  let g = Graph.create () in
  let ts =
    Array.init 3 (fun d -> (Graph.add_vertex g ~doc_id:d (Vertex.Text None)).Vertex.id)
  in
  let e01 = Graph.add_edge g ~v1:ts.(0) ~v2:ts.(1) Edge.Equijoin in
  let e02 = Graph.add_edge g ~v1:ts.(0) ~v2:ts.(2) Edge.Equijoin in
  let e12 = Graph.add_edge g ~v1:ts.(1) ~v2:ts.(2) Edge.Equijoin in
  let rt = Runtime.create ~outputs:(Graph.vertex_ids g) engine g in
  ignore (Runtime.execute_edge rt e01 : Runtime.exec_info);
  check_bool "e12 not yet implied" true (not (Runtime.executed rt e12));
  ignore (Runtime.execute_edge rt e02 : Runtime.exec_info);
  check_bool "e12 now implied" true (Runtime.executed rt e12);
  check_bool "all executed" true (Runtime.all_executed rt)

let test_relation_too_large () =
  let r = Relation.of_pairs ~v1:0 ~v2:1 (pairs [ 1; 1; 1 ] [ 10; 11; 12 ]) in
  (* Extending each of 3 rows with 3 matches = 9 rows > 4. *)
  let p = pairs [ 10; 10; 10; 11; 11; 11; 12; 12; 12 ] [ 5; 6; 7; 5; 6; 7; 5; 6; 7 ] in
  (match Relation.extend ~sanitize ~max_rows:4 r ~on:1 ~new_vertex:2 p with
   | exception Relation.Too_large n -> check_bool "aborted early" true (n = 5)
   | _ -> Alcotest.fail "expected Too_large");
  (* Without the cap it succeeds. *)
  check_int "uncapped rows" 9
    (Relation.rows (Relation.extend ~sanitize r ~on:1 ~new_vertex:2 p))

let test_cross_too_large () =
  let a = Relation.singleton ~vertex:0 (col (Array.init 100 (fun i -> i))) in
  let b = Relation.singleton ~vertex:1 (col (Array.init 100 (fun i -> i))) in
  match Relation.cross ~sanitize ~max_rows:5000 a b with
  | exception Relation.Too_large _ -> ()
  | _ -> Alcotest.fail "expected Too_large from cross"

(* ---------- Runtime: the refresh, checked by hand ---------- *)

(* Replays ROX's edge order for [compiled] one edge at a time and checks
   every edge's refresh without relying on the sanitizer: each live
   component vertex's T(v) is the distinct values of its column, [changed]
   holds every live vertex whose table shrank — exactly those, among
   vertices that already had a table — and names no dead vertex, and a
   component carries a dead column only as the one column of a component
   with no live vertex. Returns how many columns of the component each
   edge grew were left physically unchanged (the carried ones the refresh
   skips). *)
let replay_refresh ~sanitize (compiled : Rox_xquery.Compile.compiled) =
  let open Rox_xquery.Compile in
  let engine = compiled.engine and graph = compiled.graph in
  let order = (Rox_core.Optimizer.run_default compiled).Rox_core.Optimizer.edge_order in
  let rt =
    Runtime.create ~config:{ (Runtime.default_config ()) with Runtime.sanitize }
      ~outputs:(Rox_xquery.Tail.outputs compiled.tail) engine graph
  in
  let nv = Graph.vertex_count graph in
  let column_of v = Option.map (fun r -> Relation.column r v) (Runtime.component rt v) in
  let carried = ref 0 in
  List.iter
    (fun id ->
      let e = Graph.edge graph id in
      if not (Runtime.executed rt e) then begin
        let tables = Array.init nv (Runtime.table rt) in
        let columns = Array.init nv column_of in
        let info = Runtime.execute_edge rt e in
        let grown = Runtime.component rt e.Edge.v1 in
        List.iter
          (fun v -> check_bool (Printf.sprintf "e%d v%d: changed is live" id v) true (Runtime.live rt v))
          info.Runtime.changed;
        for v = 0 to nv - 1 do
          let what = Printf.sprintf "e%d v%d" id v in
          let changed = List.mem v info.Runtime.changed in
          match Runtime.component rt v with
          | None -> check_bool (what ^ ": changed only in a component") false changed
          | Some rel when not (Runtime.live rt v) ->
            check_bool (what ^ ": a dead column is its component's only one") true
              (Relation.vertices rel = [| v |])
          | Some rel -> (
            let col = Relation.column rel v in
            (match columns.(v) with
             | Some c when c == col && Option.fold ~none:false ~some:(( == ) rel) grown ->
               incr carried
             | _ -> ());
            let tab = Option.get (Runtime.table rt v) in
            check_bool (what ^ ": T(v) = distinct column") true
              (Rox_util.Column.equal tab (Rox_util.Column.sorted_dedup col));
            match tables.(v) with
            | Some old -> check_bool (what ^ ": changed iff shrank") (clen old <> clen tab) changed
            | None ->
              if clen tab <> Exec.vertex_domain_count engine (Graph.vertex graph v) then
                check_bool (what ^ ": shrank from its domain") true changed)
        done
      end)
    order;
  check_bool "every edge executed" true (Runtime.all_executed rt);
  !carried

let test_runtime_refresh_by_hand () =
  let xmark = xmark_engine ~factor:0.05 () in
  let dblp = Rox_storage.Engine.create () in
  let venues = [ "VLDB"; "ICDE"; "SIGMOD"; "EDBT" ] in
  ignore
    (Rox_workload.Dblp.load
       ~params:{ Rox_workload.Dblp.default_gen with reduction = 400 }
       dblp (List.map Rox_workload.Dblp.find_venue venues)
      : Rox_workload.Dblp.loaded list);
  let queries =
    [
      Rox_xquery.Compile.compile_string xmark (xmark_q1 ~op:"<" ~theta:145);
      Rox_xquery.Compile.compile_string xmark (xmark_q1 ~op:">" ~theta:145);
      Rox_xquery.Compile.compile_string dblp
        (Rox_workload.Dblp.query_for (List.map (fun v -> v ^ ".xml") venues));
    ]
  in
  (* Sanitizer off: the checks above are the only ones. Under
     ROX_SANITIZE=1 the replay runs armed too, adding RX306. *)
  let modes = List.sort_uniq compare [ false; sanitize ] in
  List.iter
    (fun sanitize ->
      let carried = List.fold_left (fun acc q -> acc + replay_refresh ~sanitize q) 0 queries in
      check_bool "some columns were carried" true (carried > 0))
    modes

let test_pretty () =
  let engine = two_doc_engine () in
  let g, _, _ = small_join_graph engine in
  let s = Pretty.to_string g in
  check_bool "mentions equijoin" true
    (String.length s > 0
    && (let found = ref false in
        String.iteri (fun i c -> if c = '=' && i > 0 then found := true) s;
        !found));
  let dot = Pretty.to_dot g in
  check_bool "dot header" true (String.length dot > 10 && String.sub dot 0 5 = "graph")

let suite =
  [
    Alcotest.test_case "graph basics" `Quick test_graph_basics;
    Alcotest.test_case "equi closure" `Quick test_equi_closure;
    Alcotest.test_case "vertex labels" `Quick test_vertex_labels;
    Alcotest.test_case "vertex domain" `Quick test_vertex_domain;
    Alcotest.test_case "can_index_init" `Quick test_can_index_init;
    Alcotest.test_case "full pairs both directions" `Quick test_full_pairs_directions;
    Alcotest.test_case "sampled step" `Quick test_sampled_step;
    Alcotest.test_case "sampled equijoin" `Quick test_sampled_equijoin;
    Alcotest.test_case "relation basics" `Quick test_relation_basics;
    Alcotest.test_case "relation extend" `Quick test_relation_extend;
    Alcotest.test_case "relation fuse" `Quick test_relation_fuse;
    Alcotest.test_case "relation filter pairs" `Quick test_relation_filter_pairs;
    Alcotest.test_case "relation distinct/sort/project" `Quick test_relation_distinct_sort_project;
    Alcotest.test_case "relation cross" `Quick test_relation_cross;
    Alcotest.test_case "relation kernels vs naive shapes" `Quick
      test_relation_kernels_vs_naive;
    Alcotest.test_case "relation iter rows" `Quick test_relation_iter_rows;
    Alcotest.test_case "runtime trivial edges" `Quick test_runtime_trivial_edges;
    Alcotest.test_case "runtime order independence" `Quick test_runtime_execute_all_orders;
    Alcotest.test_case "runtime tables shrink" `Quick test_runtime_tables_shrink;
    Alcotest.test_case "runtime double execute" `Quick test_runtime_double_execute;
    Alcotest.test_case "runtime blowup" `Quick test_runtime_blowup;
    Alcotest.test_case "runtime implied equijoins" `Quick test_runtime_implied_equijoins;
    Alcotest.test_case "relation too large" `Quick test_relation_too_large;
    Alcotest.test_case "cross too large" `Quick test_cross_too_large;
    Alcotest.test_case "pretty" `Quick test_pretty;
    Alcotest.test_case "runtime refresh checked by hand" `Quick test_runtime_refresh_by_hand;
  ]
