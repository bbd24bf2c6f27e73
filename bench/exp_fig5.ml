(* E6 — Figure 5: impact of the equi-join order on cumulative (intermediate)
   join result cardinality for the combination VLDB, ICDE, ICIP, ADBIS.
   ICIP (IR) is uncorrelated with the three DB venues: join orders that
   touch ICIP only at the end pay orders of magnitude larger intermediates.
   Classical picks such an order; ROX starts from the ICIP joins. *)

open Rox_xquery
open Rox_workload
open Rox_classical
open Bench_common

let run ~full () =
  header "Figure 5: impact of join order on intermediate result sizes";
  let scale = if full then 100 else 10 in
  Printf.printf "documents: 1=VLDB 2=ICDE 3=ICIP 4=ADBIS (scale x%d)\n" scale;
  let venues = List.map Dblp.find_venue [ "VLDB"; "ICDE"; "ICIP"; "ADBIS" ] in
  let ctx = load_dblp ~scale venues in
  let compiled = compile_combo ctx venues in
  let graph = compiled.Compile.graph in
  let template = Option.get (Enumerate.analyze graph) in
  let classical_order = Classical_opt.join_order ctx.engine graph template in
  (* ROX's join order class. *)
  let rox = Rox_core.Optimizer.run_default compiled in
  let rox_order = rox_join_order graph template rox.Rox_core.Optimizer.edge_order in
  let rows =
    List.map
      (fun order ->
        let cumulative placement =
          let edges = Enumerate.plan_edges graph template ~order ~placement in
          match execute_plan ctx compiled edges with
          | Some run -> string_of_int (Executor.join_rows graph run)
          | None -> "blowup"
        in
        let marks =
          (if Enumerate.equal_order order classical_order then " <= classical" else "")
          ^ (if Enumerate.equal_order order rox_order then " <= ROX" else "")
        in
        [ Enumerate.order_name order ^ marks; cumulative Enumerate.SJ ])
      (Enumerate.all_join_orders ~ndocs:4)
  in
  let sorted =
    List.sort
      (fun a b ->
        compare
          (int_of_string_opt (List.nth a 1))
          (int_of_string_opt (List.nth b 1)))
      rows
  in
  Rox_util.Table_fmt.print ~header:[ "join order"; "cumulative join rows (SJ)" ] sorted;
  let values =
    List.filter_map (fun r -> int_of_string_opt (List.nth r 1)) rows
    |> List.map float_of_int
  in
  (match (values, rox_order) with
   | v :: _ :: _, _ ->
     ignore v;
     let arr = Array.of_list values in
     Printf.printf
       "\nspread: min=%d max=%d (factor %.0fx) — the paper reports up to 3 orders of magnitude\n"
       (int_of_float (Rox_util.Stats.minimum arr))
       (int_of_float (Rox_util.Stats.maximum arr))
       (Rox_util.Stats.maximum arr /. Rox_util.Stats.minimum arr)
   | _ -> ());
  Printf.printf "classical chose %s; ROX chose %s\n"
    (Enumerate.order_name classical_order)
    (Enumerate.order_name rox_order)
