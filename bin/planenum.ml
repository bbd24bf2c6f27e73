(* Plan-space enumeration tool (the "small tool that enumerates all plans
   that ROX could potentially consider" of Section 4.2).

     rox-planenum --venue VLDB --venue ICDE --venue ICIP --venue ADBIS --scale 10

   Enumerates every canonical join order x step placement for the
   DBLP-template query over the given venues, executes each, and reports
   work units and cumulative intermediate join cardinality, together with
   the classical optimizer's choice and ROX's. *)

open Cmdliner
open Rox_workload
open Rox_classical

let run venue_names scale reduction seed sort_by_work =
  let venues =
    match venue_names with
    | [] -> List.map Dblp.find_venue [ "VLDB"; "ICDE"; "ICIP"; "ADBIS" ]
    | names ->
      List.map
        (fun n ->
          try Dblp.find_venue n
          with Not_found ->
            Printf.eprintf "unknown venue %S\n" n;
            exit 2)
        names
  in
  let engine = Rox_storage.Engine.create () in
  let params = { Dblp.default_gen with Dblp.scale; reduction; seed } in
  let loaded = Dblp.load ~params engine venues in
  List.iter
    (fun l ->
      Printf.printf "%-18s %-6s %7d author tags\n" l.Dblp.venue.Dblp.name
        (String.concat "," (List.map Dblp.area_name l.Dblp.venue.Dblp.areas))
        l.Dblp.author_tag_count)
    loaded;
  let compiled =
    Rox_xquery.Compile.compile_string engine
      (Dblp.query_for (List.map Dblp.uri_of venues))
  in
  let graph = compiled.Rox_xquery.Compile.graph in
  let template =
    match Enumerate.analyze graph with
    | Some t -> t
    | None ->
      prerr_endline "query does not match the k-document join template";
      exit 1
  in
  let classical_order = Classical_opt.join_order engine graph template in
  let rox = Rox_core.Optimizer.run_default compiled in
  let rox_counter = rox.Rox_core.Optimizer.counter in
  let rows = ref [] in
  List.iter
    (fun (order, placement, edges) ->
      let entry =
        let session =
          Rox_core.Session.create
            ~config:
              { (Rox_core.Session.default_config ()) with
                Rox_core.Session.budgets =
                  { Rox_core.Session.default_budgets with max_rows = 5_000_000 } }
            ()
        in
        match
          Executor.execute session
            ~outputs:(Rox_xquery.Tail.outputs compiled.Rox_xquery.Compile.tail)
            engine graph edges
        with
        | run ->
          ( Rox_algebra.Cost.total run.Executor.counter,
            string_of_int (Executor.join_rows graph run) )
        | exception Rox_joingraph.Runtime.Blowup { rows; _ } ->
          (max_int, Printf.sprintf ">%d (blowup)" rows)
      in
      let marks =
        (if Enumerate.equal_order order classical_order then " [classical]" else "")
      in
      rows :=
        ( fst entry,
          [
            Enumerate.order_name order ^ marks;
            Enumerate.placement_name placement;
            (if fst entry = max_int then "blowup" else string_of_int (fst entry));
            snd entry;
          ] )
        :: !rows)
    (Enumerate.canonical_plans graph template);
  let sorted =
    if sort_by_work then List.sort (fun (a, _) (b, _) -> compare a b) !rows
    else List.rev !rows
  in
  Rox_util.Table_fmt.print
    ~header:[ "join order"; "placement"; "work units"; "cumulative join rows" ]
    (List.map snd sorted);
  Printf.printf
    "\n%d plans enumerated; classical chose %s\nROX: sampling=%d execution=%d total=%d\n"
    (List.length !rows)
    (Enumerate.order_name classical_order)
    (Rox_algebra.Cost.read rox_counter Rox_algebra.Cost.Sampling)
    (Rox_algebra.Cost.read rox_counter Rox_algebra.Cost.Execution)
    (Rox_algebra.Cost.total rox_counter)

let cmd =
  let venues =
    Arg.(value & opt_all string [] & info [ "venue" ] ~docv:"NAME"
           ~doc:"Venue (repeatable; default VLDB ICDE ICIP ADBIS — the Figure 5 combination).")
  in
  let scale = Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N" ~doc:"Replication factor.") in
  let reduction =
    Arg.(value & opt int 10 & info [ "reduction" ] ~docv:"R" ~doc:"Base size divisor.")
  in
  let seed = Arg.(value & opt int 2009 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.") in
  let sort_by_work =
    Arg.(value & flag & info [ "sort" ] ~doc:"Sort plans by work (default: enumeration order).")
  in
  Cmd.v
    (Cmd.info "rox-planenum" ~doc:"Enumerate and execute the canonical plan space of the DBLP join query (Section 4.2).")
    Term.(const run $ venues $ scale $ reduction $ seed $ sort_by_work)

let () = exit (Cmd.eval cmd)
