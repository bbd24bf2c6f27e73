open Rox_xquery
open Rox_joingraph
open Helpers

let q1_text =
  {|let $d := doc("doc0.xml")
for $o in $d//open_auction[.//current/text() < 145],
    $p in $d//person[.//province],
    $i in $d//item[./quantity = 1]
where $o//bidder//personref/@person = $p/@id and
      $o//itemref/@item = $i/@id
return $o|}

(* ---------- Lexer ---------- *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize {|for $a in doc("x.xml")//b[c >= 1.5] return $a|} in
  let expected =
    [
      Lexer.FOR; Lexer.VAR "a"; Lexer.IN; Lexer.DOC; Lexer.LPAREN; Lexer.STRING "x.xml";
      Lexer.RPAREN; Lexer.DSLASH; Lexer.NAME "b"; Lexer.LBRACKET; Lexer.NAME "c";
      Lexer.GE; Lexer.NUMBER 1.5; Lexer.RBRACKET; Lexer.RETURN; Lexer.VAR "a"; Lexer.EOF;
    ]
  in
  check_bool "token stream" true (toks = expected)

let test_lexer_misc () =
  check_bool "assign" true (Lexer.tokenize ":=" = [ Lexer.ASSIGN; Lexer.EOF ]);
  check_bool "axis" true (Lexer.tokenize "parent::x" = [ Lexer.AXIS "parent"; Lexer.NAME "x"; Lexer.EOF ]);
  check_bool "text fun" true (Lexer.tokenize "text()" = [ Lexer.TEXT_FUN; Lexer.EOF ]);
  check_bool "comment skipped" true (Lexer.tokenize "(: note :) $x" = [ Lexer.VAR "x"; Lexer.EOF ]);
  check_bool "fn:doc" true (Lexer.tokenize "fn:doc" = [ Lexer.DOC; Lexer.EOF ]);
  check_bool "ne" true (Lexer.tokenize "!=" = [ Lexer.NE; Lexer.EOF ]);
  check_bool "single quotes" true (Lexer.tokenize "'abc'" = [ Lexer.STRING "abc"; Lexer.EOF ]);
  (match Lexer.tokenize "\"unterminated" with
   | exception Lexer.Lex_error _ -> ()
   | _ -> Alcotest.fail "unterminated string must fail")

(* ---------- Parser ---------- *)

let test_parse_q1 () =
  let q = Parser.parse q1_text in
  check_int "one let" 1 (List.length q.Ast.lets);
  check_int "three fors" 3 (List.length q.Ast.fors);
  check_int "two where atoms" 2 (List.length q.Ast.where);
  check_string "return var" "o" q.Ast.return_var;
  match q.Ast.fors with
  | (v, path) :: _ ->
    check_string "first var" "o" v;
    check_int "one step" 1 (List.length path.Ast.steps);
    (match path.Ast.steps with
     | [ step ] ->
       check_bool "descendant" true (step.Ast.axis = Rox_algebra.Axis.Descendant);
       check_int "one predicate" 1 (List.length step.Ast.preds)
     | _ -> Alcotest.fail "steps")
  | [] -> Alcotest.fail "no fors"

let test_parse_path_forms () =
  let p = Parser.parse_path "$a/b//c/@d" in
  check_int "three steps" 3 (List.length p.Ast.steps);
  (match List.rev p.Ast.steps with
   | last :: _ ->
     check_bool "attr axis" true (last.Ast.axis = Rox_algebra.Axis.Attribute);
     check_bool "attr test" true (last.Ast.test = Ast.Attribute_test "d")
   | [] -> assert false);
  let p = Parser.parse_path "$x/text()" in
  (match p.Ast.steps with
   | [ s ] -> check_bool "text test" true (s.Ast.test = Ast.Text_test)
   | _ -> Alcotest.fail "steps");
  let p = Parser.parse_path "$x/parent::y" in
  (match p.Ast.steps with
   | [ s ] -> check_bool "explicit axis" true (s.Ast.axis = Rox_algebra.Axis.Parent)
   | _ -> Alcotest.fail "steps")

let test_parse_pred_shapes () =
  let p = Parser.parse_path "$d//a[.//b/text() < 5][c = \"v\"][@id]" in
  match p.Ast.steps with
  | [ s ] ->
    check_int "three predicates" 3 (List.length s.Ast.preds);
    (match s.Ast.preds with
     | [ Ast.Value_cmp (_, Ast.Lt, Ast.Num 5.0); Ast.Value_cmp (_, Ast.Eq, Ast.Str "v");
         Ast.Exists inner ] ->
       (match inner.Ast.steps with
        | [ st ] -> check_bool "pred @id" true (st.Ast.test = Ast.Attribute_test "id")
        | _ -> Alcotest.fail "inner steps")
     | _ -> Alcotest.fail "predicate shapes")
  | _ -> Alcotest.fail "steps"

let test_parse_errors () =
  let bad s =
    match Parser.parse s with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected parse error: " ^ s)
  in
  bad "return $x";
  bad "for $a doc(\"x\") return $a";
  bad "for $a in doc(\"x\")//b where $a < $b return $a";
  bad "for $a in doc(\"x\")//b return $a trailing";
  bad "for $a in doc(\"x\")//b[ return $a"

let test_parse_roundtrip_print () =
  let q = Parser.parse q1_text in
  let printed = Format.asprintf "%a" Ast.pp_query q in
  let q2 = Parser.parse printed in
  check_bool "pretty-printed query reparses equal" true (q = q2)

(* ---------- Compile ---------- *)

let xmark_engine () =
  let engine = Rox_storage.Engine.create () in
  let params = Rox_workload.Xmark.scaled 0.02 in
  ignore (Rox_workload.Xmark.generate ~params engine ~uri:"doc0.xml");
  engine

let test_compile_q1_shape () =
  let engine = xmark_engine () in
  let c = Compile.compile_string engine q1_text in
  (* Fig 3.1 shape: 16 vertices (root, open_auction, current, text<145,
     person, province, item, quantity, text=1, bidder, personref, @person,
     @id, itemref, @item, @id) and 17 edges (15 steps + 2 equijoins). *)
  check_int "vertices" 16 (Graph.vertex_count c.Compile.graph);
  check_int "edges" 17 (Graph.edge_count c.Compile.graph);
  check_bool "connected" true (Graph.connected c.Compile.graph);
  let equijoins =
    Array.to_list (Graph.edges c.Compile.graph)
    |> List.filter (fun e -> e.Edge.op = Edge.Equijoin)
  in
  check_int "two equijoins" 2 (List.length equijoins);
  check_int "three tail keys" 3 (Array.length c.Compile.tail.Tail.key_vertices);
  check_int "return is $o" (Compile.vertex_of_var c "o") c.Compile.tail.Tail.return_vertex

let test_compile_dedup_vertices () =
  let engine = xmark_engine () in
  (* $o//bidder used by two where atoms: the vertex is shared. *)
  let q =
    {|let $d := doc("doc0.xml")
for $o in $d//open_auction
where $o//bidder//personref/@person = $d//person/@id and $o//bidder/increase/text() < 5
return $o|}
  in
  let c = Compile.compile_string engine q in
  let labels =
    Array.to_list (Graph.vertices c.Compile.graph) |> List.map Vertex.label
  in
  check_int "one bidder vertex" 1
    (List.length (List.filter (( = ) "bidder") labels))

let test_compile_closure () =
  let engine = Rox_storage.Engine.create () in
  let params = { Rox_workload.Dblp.default_gen with reduction = 400 } in
  ignore (Rox_workload.Dblp.load ~params engine
            (List.map Rox_workload.Dblp.find_venue [ "VLDB"; "ICDE"; "SIGMOD"; "EDBT" ]));
  let q = Rox_workload.Dblp.query_for [ "VLDB.xml"; "ICDE.xml"; "SIGMOD.xml"; "EDBT.xml" ] in
  let c = Compile.compile_string engine q in
  (* Figure 4: 12 vertices, 8 step edges + 3 original + 3 derived equijoins. *)
  check_int "vertices" 12 (Graph.vertex_count c.Compile.graph);
  check_int "edges" 14 (Graph.edge_count c.Compile.graph);
  let derived =
    Array.to_list (Graph.edges c.Compile.graph) |> List.filter (fun e -> e.Edge.derived)
  in
  check_int "three derived" 3 (List.length derived);
  let c2 = Compile.compile_string ~equi_closure:false engine q in
  check_int "no closure" 11 (Graph.edge_count c2.Compile.graph)

let test_compile_errors () =
  let engine = xmark_engine () in
  let bad src =
    match Compile.compile_string engine src with
    | exception Compile.Unsupported _ -> ()
    | _ -> Alcotest.fail ("expected Unsupported: " ^ src)
  in
  bad {|for $a in doc("missing.xml")//x return $a|};
  bad {|for $a in doc("doc0.xml")//x where $b/text() = "v" return $a|};
  bad {|for $a in doc("doc0.xml")//x[y != 3] return $a|}

(* ---------- Naive evaluator on a hand-checked document ---------- *)

let test_naive_hand () =
  let engine, _ = engine_of_xml site_xml in
  let eval q = Naive.eval_string engine q in
  (* All persons. *)
  check_int "3 persons" 3 (List.length (eval {|for $p in doc("doc0.xml")//person return $p|}));
  (* Persons with province: p1 and p3. *)
  check_int "2 with province" 2
    (List.length (eval {|for $p in doc("doc0.xml")//person[.//province] return $p|}));
  (* Auctions with price < 100: a1 only. *)
  check_int "1 cheap auction" 1
    (List.length (eval {|for $a in doc("doc0.xml")//auction[./price < 100] return $a|}));
  (* Join auctions to persons via @person = @id. *)
  let joined =
    eval
      {|for $a in doc("doc0.xml")//auction, $p in doc("doc0.xml")//person
        where $a//ref/@person = $p/@id return $p|}
  in
  (* a1 pairs with p1; a2 with p2 and p3 -> 3 tuples, 3 persons. *)
  check_int "3 joined persons" 3 (List.length joined)

let test_naive_duplicate_semantics () =
  (* Two auctions referencing the same person: $p appears once per distinct
     (a, p) pair. *)
  let engine, _ =
    engine_of_xml
      {|<s><a><r ref="p"/></a><a><r ref="p"/></a><q id="p"/></s>|}
  in
  let out =
    Naive.eval_string engine
      {|for $a in doc("doc0.xml")//a, $q in doc("doc0.xml")//q
        where $a/r/@ref = $q/@id return $q|}
  in
  check_int "q returned twice" 2 (List.length out)

(* ---------- Axis coverage end-to-end ---------- *)

let axis_doc =
  {|<site>
  <people>
    <person id="p1"><name>Ann</name></person>
    <person id="p2"><name>Bob</name></person>
  </people>
  <auctions>
    <auction><ref person="p1"/><price>10</price></auction>
    <auction><ref person="p2"/><price>99</price></auction>
  </auctions>
</site>|}

let check_query_matches_naive engine src =
  let compiled = Compile.compile_string engine src in
  let answer, _ = Rox_core.Optimizer.answer_default compiled in
  let naive = Naive.eval_query engine compiled.Compile.query in
  check_bool src true (List.map (fun p -> (0, p)) (Array.to_list answer) = naive)

let test_axis_queries () =
  let engine, _ = engine_of_xml axis_doc in
  List.iter (check_query_matches_naive engine)
    [
      (* parent *)
      {|for $a in doc("doc0.xml")//ref/parent::auction return $a|};
      (* ancestor *)
      {|for $n in doc("doc0.xml")//name/ancestor::person return $n|};
      (* following-sibling *)
      {|for $p in doc("doc0.xml")//ref/following-sibling::price return $p|};
      (* preceding-sibling *)
      {|for $r in doc("doc0.xml")//price/preceding-sibling::ref return $r|};
      (* descendant-or-self *)
      {|for $x in doc("doc0.xml")/descendant-or-self::auction return $x|};
      (* explicit child *)
      {|for $x in doc("doc0.xml")//auctions/child::auction return $x|};
      (* mixed with predicates *)
      {|for $a in doc("doc0.xml")//auction[./price > 50]/ref return $a|};
    ]

let test_axis_queries_nonempty () =
  (* Guard against vacuous agreement: these queries have known answers. *)
  let engine, _ = engine_of_xml axis_doc in
  let count src =
    let compiled = Compile.compile_string engine src in
    let answer, _ = Rox_core.Optimizer.answer_default compiled in
    Array.length answer
  in
  check_int "two auctions via parent" 2
    (count {|for $a in doc("doc0.xml")//ref/parent::auction return $a|});
  check_int "two persons via ancestor" 2
    (count {|for $n in doc("doc0.xml")//name/ancestor::person return $n|});
  check_int "one expensive ref" 1
    (count {|for $a in doc("doc0.xml")//auction[./price > 50]/ref return $a|})

(* ---------- Tail ---------- *)

let test_tail () =
  let rel =
    Relation.of_pairs ~v1:0 ~v2:1
      { Exec.left = col [| 3; 1; 3; 1 |]; right = col [| 30; 10; 30; 11 |] }
  in
  let spec = { Tail.key_vertices = [| 0; 1 |]; return_vertex = 0 } in
  let out = Tail.apply ~sanitize spec rel in
  (* Distinct pairs: (1,10), (1,11), (3,30); sorted; return column 0. *)
  check_bool "tail output" true (out = [| 1; 1; 3 |]);
  check_int "count" 3 (Tail.count ~sanitize spec rel)

let suite =
  [
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer misc" `Quick test_lexer_misc;
    Alcotest.test_case "parse Q1" `Quick test_parse_q1;
    Alcotest.test_case "parse path forms" `Quick test_parse_path_forms;
    Alcotest.test_case "parse predicate shapes" `Quick test_parse_pred_shapes;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "pretty-print roundtrip" `Quick test_parse_roundtrip_print;
    Alcotest.test_case "compile Q1 shape" `Quick test_compile_q1_shape;
    Alcotest.test_case "compile dedups vertices" `Quick test_compile_dedup_vertices;
    Alcotest.test_case "compile closure (Fig 4)" `Quick test_compile_closure;
    Alcotest.test_case "compile errors" `Quick test_compile_errors;
    Alcotest.test_case "naive hand-checked" `Quick test_naive_hand;
    Alcotest.test_case "naive duplicate semantics" `Quick test_naive_duplicate_semantics;
    Alcotest.test_case "axis queries = naive" `Quick test_axis_queries;
    Alcotest.test_case "axis queries nonempty" `Quick test_axis_queries_nonempty;
    Alcotest.test_case "tail" `Quick test_tail;
  ]
