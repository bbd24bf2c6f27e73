(* E8 — Figure 7: scaling document sizes (x1 / x10 / x50 replication):
   plan quality stays flat while the relative sampling overhead shrinks
   with document size.

   Per combination: ROX (incl/excl sampling), the classical
   smallest-input-first plan and the mid-query re-optimization baseline,
   each normalized to the cheapest canonical plan of the enumerated plan
   space (the E7 optimum), so a change to ROX moves only ROX's columns. *)

open Rox_workload
open Rox_classical
open Bench_common

type point = {
  optimal : int;
  rox_pure : int;
  rox_full : int;
  classical : int;
  midquery : int;
}

let measure_combo ctx vs =
  let compiled = compile_combo ctx vs in
  match plan_classes ctx compiled with
  | None -> None
  | Some c ->
    let mq, _ =
      Midquery.execute (plan_session ())
        ~outputs:(Rox_xquery.Tail.outputs compiled.Rox_xquery.Compile.tail)
        ctx.engine compiled.Rox_xquery.Compile.graph
    in
    Some
      {
        optimal = c.optimal;
        rox_pure = c.rox_pure;
        rox_full = c.rox_full;
        classical = c.classical;
        midquery = Rox_algebra.Cost.total mq.Rox_core.Driver.counter;
      }

let run ~full () =
  header "Figure 7: scaling document sizes";
  let scales = if full then [ 1; 10; 100 ] else [ 1; 10; 50 ] in
  let per_group = if full then 5 else 3 in
  let table = ref [] in
  let overheads = ref [] in
  List.iter
    (fun scale ->
      let ctx, dt = time_it (fun () -> load_dblp ~scale (Array.to_list Dblp.venues)) in
      Printf.printf "scale x%d: loaded in %.1fs\n%!" scale dt;
      let combos =
        Combos.all_combinations Dblp.venues
        |> List.filter (fun (_, vs) ->
               Correlation.nonempty_joint
                 (List.map (fun v -> List.assoc v.Dblp.name ctx.by_name) vs))
        |> Combos.sample_per_group ~seed:23 ~per_group
        |> List.filter_map (fun (g, vs) -> Option.map (fun p -> (g, p)) (measure_combo ctx vs))
      in
      List.iter
        (fun group ->
          let points = List.filter_map (fun (g, p) -> if g = group then Some p else None) combos in
          if points <> [] then begin
            let gm f =
              Rox_util.Stats.geometric_mean
                (Array.of_list
                   (List.map
                      (fun p ->
                        max 1e-9 (float_of_int (f p) /. float_of_int (max 1 p.optimal)))
                      points))
            in
            table :=
              [
                Printf.sprintf "x%d" scale;
                Combos.group_name group;
                Printf.sprintf "%.2f" (gm (fun p -> p.rox_pure));
                Printf.sprintf "%.2f" (gm (fun p -> p.rox_full));
                Printf.sprintf "%.2f" (gm (fun p -> p.classical));
                Printf.sprintf "%.2f" (gm (fun p -> p.midquery));
              ]
              :: !table
          end)
        Combos.groups;
      let ovs =
        List.map
          (fun (_, p) ->
            float_of_int (p.rox_full - p.rox_pure) /. float_of_int (max 1 p.rox_pure))
          combos
      in
      if ovs <> [] then
        overheads :=
          (scale, 100.0 *. Rox_util.Stats.mean (Array.of_list ovs)) :: !overheads)
    scales;
  Rox_util.Table_fmt.print
    ~header:[ "scale"; "grp"; "ROX excl"; "ROX incl"; "classical"; "mid-query" ]
    (List.rev !table);
  subheader "ROX sampling overhead by scale (the Fig 7 trend)";
  List.iter
    (fun (scale, ov) -> Printf.printf "  x%-3d mean overhead = %.0f%%\n" scale ov)
    (List.rev !overheads)
