(* Ablations of ROX's design choices (see DESIGN.md):
   - re-sampling after each execution vs frozen Phase-1 weights
     (independence assumption);
   - chain sampling vs greedy smallest-weight edge. *)

open Rox_xquery
open Rox_workload
open Rox_core
open Bench_common

let base_config () = Session.default_config ()

let variants () =
  [
    ("ROX (full)", base_config ());
    ("no resample", { (base_config ()) with Session.resample = false });
    ("greedy (no chain)", { (base_config ()) with Session.use_chain = false });
  ]

let measure compiled config =
  let result = Optimizer.run (Session.create ~config ()) compiled in
  let c = result.Optimizer.counter in
  ( Rox_algebra.Cost.read c Rox_algebra.Cost.Sampling,
    Rox_algebra.Cost.read c Rox_algebra.Cost.Execution )

let run () =
  header "Ablations: chain sampling, re-sampling";
  (* XMark Q1 / Qm1. *)
  let engine = xmark_engine ~factor:1.0 () in
  let queries =
    [ ("XMark Q1 (<145)", Compile.compile_string engine (q1_query "<" 145));
      ("XMark Qm1 (>145)", Compile.compile_string engine (q1_query ">" 145)) ]
  in
  (* A correlated DBLP combo. *)
  let venues = List.map Dblp.find_venue [ "VLDB"; "ICDE"; "ICIP"; "ADBIS" ] in
  let ctx = load_dblp ~scale:10 venues in
  let queries = queries @ [ ("DBLP VLDB,ICDE,ICIP,ADBIS x10", compile_combo ctx venues) ] in
  let table =
    List.concat_map
      (fun (qname, compiled) ->
        List.map
          (fun (vname, config) ->
            let sampling, execution = measure compiled config in
            [
              qname;
              vname;
              string_of_int sampling;
              string_of_int execution;
              string_of_int (sampling + execution);
            ])
          (variants ()))
      queries
  in
  Rox_util.Table_fmt.print
    ~header:[ "workload"; "variant"; "sampling"; "execution"; "total" ]
    table;
  Printf.printf
    "\n(execution column = plan quality; sampling column = optimization spend.\n\
    \ 'no resample' and 'greedy' typically buy less sampling at the price of\n\
    \ worse plans on correlated inputs.)\n";

  (* Baseline ladder: synopsis-static < mid-query re-optimization < ROX. *)
  subheader "optimizer ladder: static synopsis / mid-query re-opt / ROX";
  let ladder =
    List.map
      (fun (qname, compiled) ->
        let graph = compiled.Compile.graph in
        let static_work =
          let order = Rox_classical.Midquery.synopsis_order compiled.Compile.engine graph in
          match
            Rox_classical.Executor.execute
              (plan_session ~max_rows:3_000_000 ())
              ~outputs:(Tail.outputs compiled.Compile.tail)
              compiled.Compile.engine graph order
          with
          | run -> string_of_int (Rox_algebra.Cost.total run.Rox_classical.Executor.counter)
          | exception Rox_joingraph.Runtime.Blowup _ -> "blowup"
        in
        let mq, replans =
          Rox_classical.Midquery.execute (Session.create ())
            ~outputs:(Tail.outputs compiled.Compile.tail)
            compiled.Compile.engine graph
        in
        let mq_work = Rox_algebra.Cost.total mq.Rox_core.Driver.counter in
        let rox = Optimizer.run_default compiled in
        let rox_work = Rox_algebra.Cost.total rox.Optimizer.counter in
        [
          qname;
          static_work;
          Printf.sprintf "%d (%d replans)" mq_work replans;
          string_of_int rox_work;
        ])
      queries
  in
  Rox_util.Table_fmt.print
    ~header:[ "workload"; "static synopsis"; "mid-query re-opt"; "ROX total" ]
    ladder;

  (* Approximate mode: fraction of tables vs answer recall and work. *)
  subheader "approximate (sample-driven) execution";
  let compiled = List.assoc "XMark Qm1 (>145)" queries in
  let exact, _ = Optimizer.answer_default compiled in
  let exact_n = max 1 (Array.length exact) in
  let rows =
    List.map
      (fun fraction ->
        let config =
          { (base_config ()) with Session.table_fraction = Some fraction }
        in
        let approx, result =
          Optimizer.answer (Session.create ~config ()) compiled
        in
        [
          Printf.sprintf "%.2f" fraction;
          string_of_int (Array.length approx);
          Printf.sprintf "%.0f%%" (100.0 *. float_of_int (Array.length approx) /. float_of_int exact_n);
          string_of_int (Rox_algebra.Cost.total result.Optimizer.counter);
        ])
      [ 0.1; 0.25; 0.5; 1.0 ]
  in
  Rox_util.Table_fmt.print ~header:[ "fraction"; "answers"; "recall"; "work" ] rows;
  Printf.printf "(exact answer: %d nodes)\n" (Array.length exact)
