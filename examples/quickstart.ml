(* Quickstart: load an XML document, run an XQuery through the ROX run-time
   optimizer, and read the answer back as XML.

     dune exec examples/quickstart.exe *)

let document =
  {|<library>
  <book year="2009"><title>Run-time Query Optimization</title>
    <author>Abdel Kader</author><author>Boncz</author></book>
  <book year="2004"><title>Staircase Join</title>
    <author>Grust</author><author>van Keulen</author><author>Teubner</author></book>
  <book year="2009"><title>Join Graph Isolation</title>
    <author>Grust</author><author>Mayr</author><author>Rittinger</author></book>
</library>|}

let query =
  {|for $b in doc("library.xml")//book[./@year = 2009],
    $a in doc("library.xml")//author
where $b//author/text() = $a/text()
return $a|}

let () =
  (* 1. An engine owns documents, string pools and indices. *)
  let engine = Rox_storage.Engine.create () in
  let docref =
    Rox_storage.Engine.add_tree engine ~uri:"library.xml"
      (Rox_xmldom.Xml_parser.parse_string document)
  in
  Printf.printf "loaded library.xml: %d nodes\n\n"
    (Rox_shred.Doc.node_count docref.Rox_storage.Engine.doc);

  (* 2. Compile the XQuery: static compilation stops at the Join Graph. *)
  let compiled = Rox_xquery.Compile.compile_string engine query in
  print_string "Join Graph isolated from the query:\n";
  print_string (Rox_joingraph.Pretty.to_string compiled.Rox_xquery.Compile.graph);

  (* 3. Run ROX: optimization happens during execution, driven by sampling. *)
  (* One explicit session owns the run: seed, counter, budgets and the
     telemetry sink its spans and optimizer events would land in. *)
  let session = Rox_core.Session.create () in
  let answer, result = Rox_core.Optimizer.answer session compiled in

  (* 4. The answer is a sequence of nodes of the queried document. *)
  let doc = docref.Rox_storage.Engine.doc in
  Printf.printf "\nanswer (%d author elements, XQuery order):\n" (Array.length answer);
  Array.iter
    (fun pre ->
      let text =
        Rox_shred.Navigation.children doc pre
        |> Array.to_list
        |> List.map (fun c -> Rox_shred.Doc.value doc c)
        |> String.concat ""
      in
      Printf.printf "  <author>%s</author>\n" text)
    answer;

  (* 5. Inspect what the optimizer did. *)
  let c = result.Rox_core.Optimizer.counter in
  Printf.printf "\nwork units: sampling=%d execution=%d\n"
    (Rox_algebra.Cost.read c Rox_algebra.Cost.Sampling)
    (Rox_algebra.Cost.read c Rox_algebra.Cost.Execution);
  Printf.printf "edges executed in order: %s\n"
    (String.concat " -> "
       (List.map string_of_int result.Rox_core.Optimizer.edge_order))
