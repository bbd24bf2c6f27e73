open Rox_joingraph

type result = Driver.result = {
  runtime : Runtime.t;
  relation : Relation.t;
  edge_order : int list;
  edge_rows : (int * int) list;
  counter : Rox_algebra.Cost.counter;
}

let phase1 state =
  let graph = State.graph state in
  Array.iter
    (fun (v : Vertex.t) -> ignore (State.init_vertex_from_index state v.Vertex.id : bool))
    (Graph.vertices graph);
  List.iter
    (fun e ->
      match Estimate.edge_weight state e with
      | Some w -> State.set_weight state e w
      | None -> ())
    (Runtime.unexecuted_edges (State.runtime state))

(* Phase 2 as an order policy. With the chain, the winning path segment
   "is treated as a separate Join Graph, optimized, and executed in the
   most optimal order found" (Section 3.2): its edges run greedily by
   current weight, which refreshes after each step. Without it, the
   smallest-weight edge runs next. *)
let policy state =
  let cfg = Session.config (State.session state) in
  let runtime = State.runtime state in
  let weight_of e = Option.value ~default:infinity (State.weight state e) in
  let segment = ref [] in
  let rec next () =
    match !segment with
    | first :: rest ->
      let best =
        List.fold_left (fun b e -> if weight_of e < weight_of b then e else b) first rest
      in
      segment := List.filter (fun e -> e.Edge.id <> best.Edge.id) !segment;
      if Runtime.executed runtime best then next () else Some best
    | [] when cfg.Session.use_chain -> (
      match Chain.run state with
      | None -> None
      | Some { Chain.edges; _ } ->
        segment := edges;
        next ())
    | [] -> State.min_weight_edge state
  in
  (* Refresh samples/cards of every live vertex whose table shrank, then
     re-sample the weights of the un-executed edges incident to the executed
     edge's endpoints (lines 14-19; Fig 3.2: "the weights of other edges are
     unchanged" — they are re-sampled when their own vertices execute). *)
  let executed (e : Edge.t) (info : Runtime.exec_info) =
    List.iter (State.refresh_vertex state) info.Runtime.changed;
    if cfg.Session.resample then Estimate.reweigh_incident state [ e.Edge.v1; e.Edge.v2 ]
  in
  { Driver.next; executed }

let run session (compiled : Rox_xquery.Compile.compiled) =
  Driver.run session (fun () ->
      let state =
        State.create session
          ~outputs:(Rox_xquery.Tail.outputs compiled.Rox_xquery.Compile.tail)
          compiled.Rox_xquery.Compile.engine compiled.Rox_xquery.Compile.graph
      in
      phase1 state;
      (State.runtime state, policy state))

let answer session compiled =
  let result = run session compiled in
  (Driver.answer session compiled result, result)

let run_default compiled = run (Session.create ()) compiled

let answer_default compiled = answer (Session.create ()) compiled
