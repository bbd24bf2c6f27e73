open Rox_joingraph
open Rox_core

type result = Driver.result = {
  runtime : Runtime.t;
  relation : Relation.t;
  edge_order : int list;
  edge_rows : (int * int) list;
  counter : Rox_algebra.Cost.counter;
}

let static runtime order =
  let graph = Runtime.graph runtime in
  let pending = ref order in
  let rec next () =
    match !pending with
    | [] -> None
    | e :: rest ->
      pending := rest;
      if not (Runtime.executed runtime e) then Some e
      else if Runtime.is_trivial_edge graph e || Runtime.implied runtime e then next ()
      else raise (Driver.Plan_error (Printf.sprintf "edge %d appears twice in the plan" e.Edge.id))
  in
  { Driver.next; executed = (fun _ _ -> ()) }

let execute session ~outputs engine graph order =
  Driver.run session (fun () ->
      let runtime =
        Runtime.create ~config:(Session.runtime_config session) ~outputs engine graph
      in
      (runtime, static runtime order))

let join_rows graph result =
  List.fold_left
    (fun acc (id, rows) ->
      match (Graph.edge graph id).Edge.op with
      | Edge.Equijoin -> acc + rows
      | Edge.Step _ -> acc)
    0 result.edge_rows

let answer session (compiled : Rox_xquery.Compile.compiled) order =
  let result =
    execute session
      ~outputs:(Rox_xquery.Tail.outputs compiled.Rox_xquery.Compile.tail)
      compiled.Rox_xquery.Compile.engine compiled.Rox_xquery.Compile.graph order
  in
  (Driver.answer session compiled result, result)

let execute_default ~outputs engine graph order =
  execute (Session.create ()) ~outputs engine graph order

let answer_default compiled order = answer (Session.create ()) compiled order
