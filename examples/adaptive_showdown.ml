(* ROX vs a static plan, head to head, as the data grows. The static plan is
   produced once by the generic classical heuristic (exact single-document
   estimates over base tables, no correlation knowledge) and re-executed at
   every scale; ROX re-optimizes at run-time on each instance.

     dune exec examples/adaptive_showdown.exe *)

open Rox_storage
open Rox_xquery

let query =
  {|let $d := doc("xmark.xml")
for $o in $d//open_auction[.//current/text() > 145],
    $p in $d//person[.//province]
where $o//bidder//personref/@person = $p/@id
return $o|}

let () =
  Printf.printf "%-8s %12s %12s %12s %8s\n" "scale" "static work" "ROX total" "ROX exec"
    "speedup";
  List.iter
    (fun factor ->
      let engine = Engine.create () in
      let params = Rox_workload.Xmark.scaled factor in
      ignore (Rox_workload.Xmark.generate ~params engine ~uri:"xmark.xml" : Engine.docref);
      let compiled = Compile.compile_string engine query in
      (* Static plan from the classical heuristic. *)
      let order =
        Rox_classical.Classical_opt.static_order engine compiled.Compile.graph
      in
      let static_run =
        Rox_classical.Executor.execute (Rox_core.Session.create ())
          ~outputs:(Tail.outputs compiled.Compile.tail)
          engine compiled.Compile.graph order
      in
      let static_work = Rox_algebra.Cost.total static_run.Rox_classical.Executor.counter in
      (* ROX. *)
      let result = Rox_core.Optimizer.run_default compiled in
      let c = result.Rox_core.Optimizer.counter in
      let rox_total = Rox_algebra.Cost.total c in
      let rox_exec = Rox_algebra.Cost.read c Rox_algebra.Cost.Execution in
      Printf.printf "%-8s %12d %12d %12d %7.1fx\n"
        (Printf.sprintf "%.2f" factor)
        static_work rox_total rox_exec
        (float_of_int static_work /. float_of_int rox_total))
    [ 0.1; 0.25; 0.5; 1.0; 2.0 ];
  print_endline
    "\n(static pays for the undetected price/bidder correlation; ROX's total\n\
     includes all of its sampling)"
