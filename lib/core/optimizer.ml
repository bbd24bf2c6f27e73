open Rox_joingraph
module Sink = Rox_telemetry.Sink
module Tm = Rox_telemetry.Metrics

type result = {
  state : State.t;
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

let execute_one state ~order ~rows e =
  let session = State.session state in
  Session.check_deadline session;
  let cfg = Session.config session in
  let info =
    Runtime.execute_edge ~meter:(State.execution_meter state) (State.runtime state) e
  in
  incr order;
  rows := (e.Edge.id, info.Runtime.rel_rows) :: !rows;
  Sink.emit (State.telemetry state)
    (Sink.Edge_executed
       { edge = e.Edge.id; order = !order; pairs = info.Runtime.pair_count;
         rel_rows = info.Runtime.rel_rows });
  (* Refresh samples/cards of every vertex whose table shrank, then
     re-sample the weights of the un-executed edges incident to the executed
     edge's endpoints (lines 14-19; Fig 3.2: "the weights of other edges are
     unchanged" — they are re-sampled when their own vertices execute). *)
  List.iter (State.refresh_vertex state) info.Runtime.changed;
  if cfg.Session.resample then Estimate.reweigh_incident state [ e.Edge.v1; e.Edge.v2 ]

(* The chosen path segment "is treated as a separate Join Graph, optimized,
   and executed in the most optimal order found" (Section 3.2): execute its
   edges greedily by current weight, which refreshes after each step. *)
let execute_segment state ~order ~rows edges =
  let remaining = ref edges in
  while !remaining <> [] do
    let weight_of e =
      match State.weight state e with Some w -> w | None -> infinity
    in
    let best =
      List.fold_left
        (fun acc e ->
          match acc with
          | None -> Some e
          | Some b -> if weight_of e < weight_of b then Some e else acc)
        None !remaining
    in
    match best with
    | None -> remaining := []
    | Some e ->
      remaining := List.filter (fun e' -> e'.Edge.id <> e.Edge.id) !remaining;
      if not (Runtime.executed (State.runtime state) e) then
        execute_one state ~order ~rows e
  done

let run_graph session engine graph =
  let tel = Session.telemetry session in
  Sink.with_span tel "query"
    ~attrs:(fun () -> [ ("client", Session.client_id session) ])
    ~record:(fun m dur -> Tm.observe m.Tm.query_ns dur)
    (fun () ->
  try
    let r =
  Session.confine session (fun () ->
      let state = State.create session engine graph in
      let cfg = Session.config session in
      phase1 state;
      let order = ref 0 in
      let rows = ref [] in
      let continue = ref true in
      while !continue do
        Session.check_deadline session;
        if Runtime.all_executed (State.runtime state) then continue := false
        else if cfg.Session.use_chain then begin
          match Chain.run state with
          | None -> continue := false
          | Some { Chain.edges; _ } -> execute_segment state ~order ~rows edges
        end
        else begin
          match State.min_weight_edge state with
          | None -> continue := false
          | Some e -> execute_one state ~order ~rows e
        end
      done;
      let relation =
        Runtime.final_relation ~meter:(State.execution_meter state)
          (State.runtime state)
      in
      {
        state;
        relation;
        edge_order = List.rev_map fst !rows;
        edge_rows = List.rev !rows;
        counter = State.counter state;
      })
    in
    if Sink.enabled tel then Tm.incr (Sink.metrics tel).Tm.queries_served;
    r
  with Rox_algebra.Cost.Budget_exceeded _ as exn ->
    if Sink.enabled tel then Tm.incr (Sink.metrics tel).Tm.budget_aborts;
    raise exn)

let run session (compiled : Rox_xquery.Compile.compiled) =
  run_graph session compiled.Rox_xquery.Compile.engine
    compiled.Rox_xquery.Compile.graph

let answer session (compiled : Rox_xquery.Compile.compiled) =
  let result = run session compiled in
  let nodes =
    Session.confine session (fun () ->
        Rox_xquery.Tail.apply ~sanitize:(Session.sanitize session)
          ~meter:(Rox_algebra.Cost.execution_meter result.counter)
          compiled.Rox_xquery.Compile.tail result.relation)
  in
  (nodes, result)

let run_default compiled = run (Session.create ()) compiled

let answer_default compiled = answer (Session.create ()) compiled
