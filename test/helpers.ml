(* Shared test scaffolding: tiny documents, random tree generators, and
   reference implementations used across the suites. *)

open Rox_xmldom

(* The sanitize mode every direct operator call in the suites passes:
   [ROX_SANITIZE]'s, so a sanitizing test run cross-checks each call. *)
let sanitize = Rox_algebra.Sanitize.env_default

let tags = [| "a"; "b"; "c"; "d"; "item" |]
let attr_names = [| "id"; "ref"; "x" |]
(* Includes the strings [float_of_string] reads as NaN, infinity, negative
   zero and an exponent, so numeric predicates meet every float class. *)
let words =
  [| "1"; "2"; "42"; "hello"; "145"; "7.5"; "x y"; ""; "nan"; "inf"; "-0"; "1e2" |]

(* Random tree via a seeded generator; sizes stay small so naive
   reference computations are cheap. *)
let random_tree_node rng ~max_depth =
  let open Rox_util in
  let rec node depth =
    let kind = Xoshiro.int rng 10 in
    if depth >= max_depth || kind < 2 then Tree.Text (Xoshiro.pick rng words)
    else if kind = 2 then Tree.Comment "a comment"
    else if kind = 3 then Tree.Pi ("target", "content")
    else begin
      let n_attrs = Xoshiro.int rng 3 in
      let attrs =
        List.init n_attrs (fun i ->
            ( Xoshiro.pick rng attr_names ^ string_of_int i,
              Xoshiro.pick rng words ))
      in
      let n_children = Xoshiro.int rng 4 in
      Tree.element ~attrs (Xoshiro.pick rng tags)
        (List.init n_children (fun _ -> node (depth + 1)))
    end
  in
  let n_children = 1 + Xoshiro.int rng 4 in
  Tree.element (Xoshiro.pick rng tags) (List.init n_children (fun _ -> node 1))

let random_tree seed =
  let rng = Rox_util.Xoshiro.create seed in
  Tree.document (random_tree_node rng ~max_depth:4)

(* Trees normalized for exact serialization round-trips: no whitespace-only
   text (the parser drops it) and no adjacent text siblings (serialization
   concatenates them). *)
let random_tree_no_blank seed =
  let rec merge_texts = function
    | Tree.Text a :: Tree.Text b :: rest -> merge_texts (Tree.Text (a ^ b) :: rest)
    | n :: rest -> n :: merge_texts rest
    | [] -> []
  in
  let rec scrub = function
    | Tree.Text s ->
      let s = if String.trim s = "" then "t" else s in
      Tree.Text s
    | Tree.Element e ->
      Tree.Element
        { e with Tree.children = merge_texts (List.map scrub e.Tree.children) }
    | (Tree.Comment _ | Tree.Pi _) as n -> n
  in
  let t = random_tree seed in
  match scrub (Tree.Element t.Tree.root) with
  | Tree.Element root -> { Tree.root }
  | _ -> assert false

let engine_of_trees trees =
  let engine = Rox_storage.Engine.create () in
  let refs =
    List.mapi (fun i t -> Rox_storage.Engine.add_tree engine ~uri:(Printf.sprintf "doc%d.xml" i) t) trees
  in
  (engine, refs)

(* A fresh engine holding one generated XMark document as xmark.xml. *)
let xmark_engine ?(factor = 0.02) () =
  let engine = Rox_storage.Engine.create () in
  let params = Rox_workload.Xmark.scaled factor in
  ignore
    (Rox_workload.Xmark.generate ~params engine ~uri:"xmark.xml"
      : Rox_storage.Engine.docref);
  engine

(* XMark Q1 ([op] = "<") and Qm1 (">") of Section 3.2 at threshold
   [theta], over xmark.xml. *)
let xmark_q1 ~op ~theta =
  Printf.sprintf
    {|let $d := doc("xmark.xml")
for $o in $d//open_auction[.//current/text() %s %d],
    $p in $d//person[.//province],
    $i in $d//item[./quantity = 1]
where $o//bidder//personref/@person = $p/@id and
      $o//itemref/@item = $i/@id
return $o|}
    op theta

let engine_of_xml xml =
  let tree = Xml_parser.parse_string xml in
  let engine = Rox_storage.Engine.create () in
  let docref = Rox_storage.Engine.add_tree engine ~uri:"doc0.xml" tree in
  (engine, docref)

(* A small site document exercising every axis. *)
let site_xml =
  {|<site>
  <people>
    <person id="p1"><name>Ann</name><address><city>X</city><province>Z</province></address></person>
    <person id="p2"><name>Bob</name><address><city>Y</city></address></person>
    <person id="p3"><name>Cas</name><address><province>W</province></address></person>
  </people>
  <auctions>
    <auction id="a1"><ref person="p1"/><price>10</price></auction>
    <auction id="a2"><ref person="p2"/><ref person="p3"/><price>200</price></auction>
  </auctions>
</site>|}

(* Reference axis evaluation through the naive evaluator. *)
let naive_axis engine ~doc_id ~pre axis =
  let path =
    { Rox_xquery.Ast.start = Rox_xquery.Ast.From_self;
      steps = [ { Rox_xquery.Ast.axis; test = Rox_xquery.Ast.Node_test; preds = [] } ] }
  in
  Rox_xquery.Naive.eval_path engine ~context:[ (doc_id, pre) ] path
  |> List.map snd

let int_array = Alcotest.(array int)

(* Column bridges: tests state expectations as int arrays; the kernels
   speak {!Rox_util.Column.t}. *)
let col a = Rox_util.Column.unsafe_of_array_detect a
let arr c = Rox_util.Column.to_array c
let clen c = Rox_util.Column.length c

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* Minor-heap words allocated by [n] calls of [f], net of the same loop
   around a call that allocates nothing. Deterministic while no other
   thread of this domain runs (the util and storage suites run before
   any test starts one), so allocation gates can demand an exact 0. *)
let minor_words_of_calls n f =
  let run g =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (g ()))
    done;
    Gc.minor_words () -. before
  in
  let empty = run (fun () -> ()) in
  run f -. empty

(* Sorted distinct list equality for answers given as (doc, pre) or pre. *)
let same_set a b = List.sort_uniq compare a = List.sort_uniq compare b

(* Algorithm 1's semijoin invariant after a run, over the live vertices
   (the outputs, once every edge ran): every materialized live vertex
   table equals the distinct values of its final relation column. A dead
   vertex's table is no longer refreshed. *)
let tables_match_relation (result : Rox_core.Optimizer.result) =
  let rel = result.Rox_core.Optimizer.relation in
  let runtime = result.Rox_core.Optimizer.runtime in
  Array.for_all
    (fun v ->
      match Rox_joingraph.Runtime.table runtime v with
      | Some table when Rox_joingraph.Runtime.live runtime v ->
        Rox_util.Column.equal table
          (Rox_util.Column.sorted_dedup (Rox_joingraph.Relation.column rel v))
      | _ -> true)
    (Rox_joingraph.Relation.vertices rel)
