(* E2 — Figure 2: chain sampling illustrated on a planted-correlation
   document. The smallest-weight edge is not on the best path; chain
   sampling discovers a hyper-selective branch and executes it first. *)

open Rox_storage
open Rox_xquery
open Rox_core
open Bench_common
module Sink = Rox_telemetry.Sink

(* 2000 'a' elements; every a has a b child and most have an e child; only a
   handful of b's lead to c[d]. The (a,b) edge looks cheap and uniform; the
   b->c branch is where the selectivity hides. *)
let build_engine () =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf "<r>";
  for i = 0 to 1999 do
    Buffer.add_string buf "<a><b>";
    if i mod 100 = 0 then Buffer.add_string buf "<c><d/><d/></c>";
    Buffer.add_string buf "</b>";
    if i mod 2 = 0 then Buffer.add_string buf "<e/>";
    Buffer.add_string buf "</a>"
  done;
  Buffer.add_string buf "</r>";
  let engine = Engine.create () in
  ignore
    (Engine.add_tree engine ~uri:"planted.xml"
       (Rox_xmldom.Xml_parser.parse_string (Buffer.contents buf))
      : Engine.docref);
  engine

let query =
  {|for $a in doc("planted.xml")//a[./e][./b//c[./d]]
return $a|}

let run () =
  header "Figure 2: chain sampling on a planted selective correlation";
  let engine = build_engine () in
  let compiled = Compile.compile_string engine query in
  print_string (Rox_joingraph.Pretty.to_string compiled.Compile.graph);
  let sink = Sink.create ~enabled:true () in
  let answer, _result = Optimizer.answer (Session.create ~telemetry:sink ()) compiled in
  subheader "chain sampling rounds (cost, sf) per path segment";
  List.iter
    (fun (round, cutoff, paths) ->
      Printf.printf "round %d (cutoff=%d):\n" round cutoff;
      List.iter
        (fun p ->
          Printf.printf "  %-4s via %-28s cost=%-10s sf=%.3g\n" p.Sink.label p.Sink.via
            (Rox_util.Table_fmt.human_float p.Sink.cost)
            p.Sink.sf)
        paths)
    (Sink.chain_rounds sink);
  let chosen =
    List.filter_map
      (function
        | Sink.Chain_chosen { edges; trigger } ->
          let t =
            match trigger with
            | `Stopping_condition -> "stopping condition"
            | `Exhausted -> "branches exhausted"
            | `Cannot_pay -> "sampling reached the cheapest segment's cost"
            | `Single_edge -> "single edge"
          in
          Some (Printf.sprintf "chose segment [%s] (%s)"
                  (String.concat " " (List.map string_of_int edges)) t)
        | _ -> None)
      (Sink.events sink)
  in
  subheader "decisions";
  List.iter print_endline chosen;
  Printf.printf "\nanswer: %d nodes (the 20 selective a's that survive both branches)\n"
    (Array.length answer)
