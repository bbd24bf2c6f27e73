(* The Figure 4/5 scenario: joining the author sets of four DBLP venues.
   Three are database conferences (strongly correlated author pools), one is
   image processing (nearly disjoint). The classical optimizer orders joins
   by input size and walks into the correlation; ROX samples its way around
   it.

     dune exec examples/dblp_join_order.exe *)

open Rox_workload
open Rox_classical

let () =
  let names = [ "VLDB"; "ICDE"; "ICIP"; "ADBIS" ] in
  let venues = List.map Dblp.find_venue names in
  let engine = Rox_storage.Engine.create () in
  let loaded = Dblp.load ~params:{ Dblp.default_gen with Dblp.scale = 5 } engine venues in
  List.iter
    (fun l ->
      Printf.printf "%-8s %-6s %6d author tags\n" l.Dblp.venue.Dblp.name
        (String.concat "," (List.map Dblp.area_name l.Dblp.venue.Dblp.areas))
        l.Dblp.author_tag_count)
    loaded;
  let query = Dblp.query_for (List.map Dblp.uri_of venues) in
  Printf.printf "\n%s\n\n" query;
  let compiled = Rox_xquery.Compile.compile_string engine query in
  let graph = compiled.Rox_xquery.Compile.graph in
  print_string (Rox_joingraph.Pretty.to_string graph);
  let template = Option.get (Enumerate.analyze graph) in

  (* The classical optimizer: exact per-document stats, smallest-input-first
     across documents. *)
  let classical_order = Classical_opt.join_order engine graph template in
  Printf.printf "\nclassical join order (smallest-input-first): %s\n"
    (Enumerate.order_name classical_order);
  let best_classical =
    List.map
      (fun placement ->
        let edges = Enumerate.plan_edges graph template ~order:classical_order ~placement in
        let run =
          Executor.execute (Rox_core.Session.create ())
            ~outputs:(Rox_xquery.Tail.outputs compiled.Rox_xquery.Compile.tail)
            engine graph edges
        in
        Rox_algebra.Cost.total run.Executor.counter)
      Enumerate.placements
    |> List.fold_left min max_int
  in
  Printf.printf "classical cost (best canonical placement): %d work units\n" best_classical;

  (* ROX. *)
  let result = Rox_core.Optimizer.run_default compiled in
  let c = result.Rox_core.Optimizer.counter in
  let rox_total = Rox_algebra.Cost.total c in
  Printf.printf "\nROX cost: %d work units (%d sampling + %d execution)\n" rox_total
    (Rox_algebra.Cost.read c Rox_algebra.Cost.Sampling)
    (Rox_algebra.Cost.read c Rox_algebra.Cost.Execution);
  let nrows = Rox_joingraph.Relation.rows result.Rox_core.Optimizer.relation in
  if nrows = 0 then
    print_endline
      "ROX found no author publishing in all four venues - a needle-in-haystack\n\
       query, which is exactly when picking the right join order matters most"
  else Printf.printf "ROX found %d result combinations across the four venues\n" nrows;
  Printf.printf "\nclassical / ROX = %.1fx\n"
    (float_of_int best_classical /. float_of_int rox_total)
