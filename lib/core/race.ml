open Rox_algebra
open Rox_joingraph

type choice =
  | Step_dir of Exec.direction
  | Equi_dir of Exec.direction
  | Default

(* Sampled work of one variant, extrapolated to the full outer table. *)
let variant_cost state e ~outer =
  let v = match outer with Exec.From_v1 -> e.Edge.v1 | Exec.From_v2 -> e.Edge.v2 in
  match (State.sample state v, State.card state v) with
  | Some _, Some card when card <= 0.0 ->
    (* Executing from an empty side is free. *)
    Some 0.0
  | Some sample, Some card when Rox_util.Column.length sample > 0 ->
    let scratch = Cost.new_counter () in
    let inner_table = Runtime.table (State.runtime state) (Edge.other_end e v) in
    let tel = Session.telemetry (State.session state) in
    Rox_telemetry.Sink.with_span tel "race_probe"
      ~attrs:(fun () -> [ ("edge", string_of_int e.Edge.id) ])
      ~record:(fun m dur ->
        Rox_telemetry.Metrics.observe m.Rox_telemetry.Metrics.sampled_run_ns dur;
        Rox_telemetry.Metrics.incr ~by:dur m.Rox_telemetry.Metrics.sampling_time_ns)
      (fun () ->
        ignore
          (Exec.sampled
             ~meter:(Cost.sampling_meter scratch)
             (State.engine state) (State.graph state) e ~outer ~sample ~inner_table
             ~limit:(State.tau state)
            : Cutoff.t));
    let spent = Cost.total scratch in
    (* The probing itself is real sampling work. *)
    Cost.charge (Some (State.sampling_meter state)) spent;
    Some (float_of_int spent *. card /. float_of_int (Rox_util.Column.length sample))
  | _ -> None

let choose state (e : Edge.t) =
  let candidates =
    match e.Edge.op with
    | Edge.Step _ -> [ (Exec.From_v1, true); (Exec.From_v2, true) ]
    | Edge.Equijoin ->
      (* Only race directions whose inner endpoint has a value-index access
         path (the zero-investment requirement). *)
      let value_vertex v =
        match (Graph.vertex (State.graph state) v).Vertex.annot with
        | Vertex.Text _ | Vertex.Attr _ -> true
        | Vertex.Root | Vertex.Element _ -> false
      in
      [ (Exec.From_v1, value_vertex e.Edge.v2); (Exec.From_v2, value_vertex e.Edge.v1) ]
  in
  let scored =
    List.filter_map
      (fun (dir, applicable) ->
        if applicable then
          Option.map (fun cost -> (dir, cost)) (variant_cost state e ~outer:dir)
        else None)
      candidates
  in
  match scored with
  | [] -> Default
  | (dir0, cost0) :: rest ->
    let best_dir, _ =
      List.fold_left
        (fun (bd, bc) (d, c) -> if c < bc then (d, c) else (bd, bc))
        (dir0, cost0) rest
    in
    (match e.Edge.op with
     | Edge.Step _ -> Step_dir best_dir
     | Edge.Equijoin -> Equi_dir best_dir)
