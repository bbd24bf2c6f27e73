open Rox_joingraph
module Sink = Rox_telemetry.Sink
module Tm = Rox_telemetry.Metrics

type policy = {
  next : unit -> Edge.t option;
  executed : Edge.t -> Runtime.exec_info -> unit;
}

type result = {
  runtime : Runtime.t;
  relation : Relation.t;
  edge_order : int list;
  edge_rows : (int * int) list;
  counter : Rox_algebra.Cost.counter;
}

exception Plan_error of string

let execute session (runtime, policy) =
  let tel = Session.telemetry session in
  let meter = Session.execution_meter session in
  let rec loop rows order =
    Session.check_deadline session;
    match policy.next () with
    | None -> rows
    | Some e ->
      Session.check_deadline session;
      let info = Runtime.execute_edge ~meter runtime e in
      Sink.emit tel
        (Sink.Edge_executed
           { edge = e.Edge.id; order; pairs = info.Runtime.pair_count;
             rel_rows = info.Runtime.rel_rows });
      policy.executed e info;
      loop ((e.Edge.id, info.Runtime.rel_rows) :: rows) (order + 1)
  in
  let rows = loop [] 1 in
  if not (Runtime.all_executed runtime) then
    raise (Plan_error "plan does not cover all edges");
  {
    runtime;
    relation = Runtime.final_relation ~meter runtime;
    edge_order = List.rev_map fst rows;
    edge_rows = List.rev rows;
    counter = Session.counter session;
  }

let run session setup =
  let tel = Session.telemetry session in
  let count field = if Sink.enabled tel then Tm.incr (field (Sink.metrics tel)) in
  Sink.with_span tel "query"
    ~attrs:(fun () -> [ ("client", Session.client_id session) ])
    ~record:(fun m dur -> Tm.observe m.Tm.query_ns dur)
    (fun () ->
      match Session.confine session (fun () -> execute session (setup ())) with
      | r ->
        count (fun m -> m.Tm.queries_served);
        r
      | exception (Rox_algebra.Cost.Budget_exceeded _ as exn) ->
        count (fun m -> m.Tm.budget_aborts);
        raise exn)

let answer session (compiled : Rox_xquery.Compile.compiled) result =
  Session.confine session (fun () ->
      Rox_xquery.Tail.apply ~sanitize:(Session.sanitize session)
        ~meter:(Rox_algebra.Cost.execution_meter result.counter)
        compiled.Rox_xquery.Compile.tail result.relation)
