(* End-to-end fuzzing: random documents x random queries. Three independent
   evaluation routes must agree on every instance:

   - the naive navigation evaluator (no join graph, no indices);
   - ROX (run-time optimization, sampling, chain exploration);
   - the fixed-plan executor on a *random permutation* of the edges.

   This exercises the full stack — parser-equivalent ASTs, compilation,
   indices, staircase and value joins, relation maintenance, semijoin
   updates, tail semantics — under shapes no hand-written test anticipates. *)

open Rox_util
open Rox_storage
open Rox_xquery
open Helpers

(* A bushier random document than the XML round-trip generator: more
   repeated tags so steps and joins hit. *)
let random_doc rng =
  let open Rox_xmldom in
  let rec node depth =
    let r = Xoshiro.int rng 100 in
    if depth >= 4 || r < 25 then Tree.Text (Xoshiro.pick rng words)
    else begin
      let tag = Xoshiro.pick rng tags in
      let attrs =
        if Xoshiro.int rng 3 = 0 then [ ("id", Xoshiro.pick rng words) ] else []
      in
      let n = 1 + Xoshiro.int rng 4 in
      Tree.element ~attrs tag (List.init n (fun _ -> node (depth + 1)))
    end
  in
  let n = 2 + Xoshiro.int rng 5 in
  Tree.document (Tree.element "root" (List.init n (fun _ -> node 1)))

(* Random query over the tag alphabet; always includes at least one for
   variable; sometimes a second document and a text-value join. *)
let random_query rng ndocs =
  let path ~var ~doc =
    let base = if doc then Printf.sprintf "doc(\"doc%d.xml\")" (Xoshiro.int rng ndocs) else var in
    let nsteps = 1 + Xoshiro.int rng 2 in
    let steps =
      List.init nsteps (fun _ ->
          let sep = if Xoshiro.bool rng then "//" else "/" in
          let test = Xoshiro.pick rng tags in
          let pred =
            match Xoshiro.int rng 4 with
            | 0 -> Printf.sprintf "[./%s]" (Xoshiro.pick rng tags)
            | 1 -> Printf.sprintf "[.//%s]" (Xoshiro.pick rng tags)
            | _ -> ""
          in
          sep ^ test ^ pred)
    in
    base ^ String.concat "" steps
  in
  let two_vars = Xoshiro.bool rng in
  if two_vars then
    Printf.sprintf
      "for $a in %s,\n    $b in %s\nwhere $a//text() = $b//text()\nreturn $a"
      (path ~var:"" ~doc:true) (path ~var:"" ~doc:true)
  else Printf.sprintf "for $a in %s\nreturn $a" (path ~var:"" ~doc:true)

let shuffled_plan rng graph =
  let edges =
    Array.of_list
      (List.filter
         (fun e -> not (Rox_joingraph.Runtime.is_trivial_edge graph e))
         (Array.to_list (Rox_joingraph.Graph.edges graph)))
  in
  Xoshiro.shuffle rng edges;
  Array.to_list edges

let run_instance seed =
  let rng = Xoshiro.create seed in
  let ndocs = 1 + Xoshiro.int rng 2 in
  let engine = Engine.create () in
  for i = 0 to ndocs - 1 do
    ignore
      (Engine.add_tree engine ~uri:(Printf.sprintf "doc%d.xml" i) (random_doc rng)
        : Engine.docref)
  done;
  let src = random_query rng ndocs in
  match Compile.compile_string engine src with
  | exception Compile.Unsupported _ -> true (* fine: fragment boundary *)
  | compiled ->
    let naive =
      Naive.eval_query engine compiled.Compile.query
    in
    let return_doc =
      (Rox_joingraph.Graph.vertex compiled.Compile.graph
         compiled.Compile.tail.Tail.return_vertex)
        .Rox_joingraph.Vertex.doc_id
    in
    let tag nodes = List.map (fun p -> (return_doc, p)) (Array.to_list nodes) in
    (* Route 1: ROX with a per-instance seed, sink enabled. *)
    let config =
      { (Rox_core.Session.default_config ()) with Rox_core.Session.seed = seed + 1 }
    in
    let sink = Rox_telemetry.Sink.create ~enabled:true () in
    let session = Rox_core.Session.create ~config ~telemetry:sink () in
    let rox, rox_result = Rox_core.Optimizer.answer session compiled in
    (* Route 2: a random-permutation plan through the classical executor. *)
    let plan = shuffled_plan rng compiled.Compile.graph in
    let planned, _ = Rox_classical.Executor.answer_default compiled plan in
    (* Every legitimate instance must come through the static analysis
       passes without error diagnostics — the graph itself and the
       replayed ROX trace — and the trace's execution order must be the
       plan the optimizer reports. *)
    let graph = compiled.Compile.graph in
    let no_errors diags = not (List.exists Rox_analysis.Diagnostic.is_error diags) in
    let analysis_clean =
      no_errors (Rox_analysis.Graph_check.check graph)
      && no_errors (Rox_analysis.Trace_check.check graph sink)
      && Rox_telemetry.Sink.execution_order sink
         = rox_result.Rox_core.Optimizer.edge_order
    in
    tag rox = naive && tag planned = naive && analysis_clean

let prop_fuzz =
  qtest ~count:120 "ROX = random plan = naive on random instances" QCheck.small_int
    run_instance

(* Single known-seed regressions stay fast to debug. *)
let test_fixed_seeds () =
  List.iter
    (fun seed -> check_bool (Printf.sprintf "seed %d" seed) true (run_instance seed))
    [ 1; 2; 3; 17; 99; 12345 ]

(* The shrunk instance that found sf = flow / card(source) unguarded: its
   chain starts at a vertex with cardinality 0, and 0/0 tripped RX113. *)
let test_seed_empty_chain_source () =
  check_bool "seed 3" true (run_instance 3)

(* ---- sort-free execution paths ------------------------------------------

   The runtime refreshes T(v) by [Column.semijoin] and the value index
   answers numeric ranges by one pre-ordered scan. Both must equal what
   they replaced; under ROX_SANITIZE=1 the runs below also cross-check
   every refreshed table against [Column.sorted_dedup] (RX306). *)

(* A strictly increasing universe with random gaps, viewed as a slice past
   a smaller leading value so the kernel sees a non-zero offset. *)
let random_universe rng =
  let n = Xoshiro.int rng 40 in
  let data = Array.make (n + 1) 0 in
  for i = 1 to n do
    data.(i) <- data.(i - 1) + 1 + Xoshiro.int rng 4
  done;
  Column.slice (Column.unsafe_of_array ~sorted:true data) ~pos:1 ~len:n

let prop_semijoin_refresh =
  qtest ~count:400 "refresh semijoin = sorted_dedup" QCheck.small_int (fun seed ->
      let rng = Xoshiro.create (seed + 401) in
      let table = random_universe rng in
      let n = Column.length table in
      let last = if n = 0 then 0 else Column.get table (n - 1) in
      let marks = Bytes.make (last + 1 + Xoshiro.int rng 8) '\000' in
      let draw k pool = Array.init k (fun _ -> Xoshiro.pick rng pool) in
      let values = Column.to_array table in
      let column =
        if n = 0 then [||]
        else
          match Xoshiro.int rng 5 with
          | 0 -> [||]
          | 1 ->
            (* Every table value, shuffled, plus repeats: nothing drops. *)
            let a = Array.append values (draw (Xoshiro.int rng 10) values) in
            Xoshiro.shuffle rng a;
            a
          | 2 ->
            (* Heavily duplicated: a few values, many times over. *)
            draw (20 + Xoshiro.int rng 40) (draw (1 + Xoshiro.int rng 3) values)
          | 3 ->
            (* Not a subset: values in the gaps and past either buffer end
               must drop and leave no mark behind. *)
            Array.init (Xoshiro.int rng (2 * n)) (fun _ ->
                Xoshiro.int rng (last + 12) - 2)
          | _ -> draw (Xoshiro.int rng (2 * n)) values
      in
      let c = Column.unsafe_of_array_detect column in
      let fresh = Column.semijoin ~marks table c in
      let kept = List.filter (fun x -> Array.mem x column) (Array.to_list values) in
      let subset = Array.for_all (fun x -> Array.mem x values) column in
      Column.equal fresh (Column.of_array (Array.of_list kept))
      && ((not subset) || Column.equal fresh (Column.sorted_dedup c))
      && Column.sorted fresh
      && Column.flag_honest fresh
      && (Column.length fresh < n || fresh == table)
      && Bytes.for_all (fun ch -> ch = '\000') marks)

(* Range bounds at, just below and just above the pool's numeric values. *)
let numeric_words =
  [| 1.; 2.; 42.; 145.; 7.5; Float.infinity; -0.; 0.; 1e2; Float.neg_infinity |]

let prop_text_range_matches =
  qtest ~count:300 "text_range = Selection.matches filter" QCheck.(pair small_int small_int)
    (fun (seed, pick) ->
      let engine, _ = engine_of_trees [ random_tree seed ] in
      let r = Engine.get engine 0 in
      let rng = Xoshiro.create ((seed * 131) + pick) in
      let bound () =
        if Xoshiro.int rng 4 = 0 then None
        else begin
          let b = Xoshiro.pick rng numeric_words in
          Some (match Xoshiro.int rng 3 with 0 -> Float.pred b | 1 -> b | _ -> Float.succ b)
        end
      in
      let lo = bound () and hi = bound () in
      let pred =
        Rox_algebra.Selection.Between
          ( Option.value lo ~default:Float.neg_infinity,
            Option.value hi ~default:Float.infinity )
      in
      let texts = Kind_index.lookup r.Engine.kinds Rox_shred.Nodekind.Text in
      let expected = Rox_algebra.Selection.filter ~doc:r.Engine.doc ~pred texts in
      let got = Value_index.text_range r.Engine.values ?lo ?hi () in
      Column.equal got expected
      && Column.sorted got
      && Column.flag_honest got
      && Value_index.text_range_count r.Engine.values ?lo ?hi () = Column.length got)

let run_seeded ?table_fraction ~seed compiled =
  let config =
    { (Rox_core.Session.default_config ()) with
      Rox_core.Session.seed; table_fraction }
  in
  Rox_core.Optimizer.run (Rox_core.Session.create ~config ()) compiled

let prop_tables_match_xmark =
  qtest ~count:8 "T(v) = distinct final column: XMark Q1/Qm1" QCheck.small_int
    (fun seed ->
      let rng = Xoshiro.create (seed + 503) in
      let engine = Engine.create () in
      ignore
        (Rox_workload.Xmark.generate ~seed:(1 + seed)
           ~params:(Rox_workload.Xmark.scaled 0.02) engine ~uri:"xmark.xml"
          : Engine.docref);
      let op = if Xoshiro.bool rng then "<" else ">" in
      let compiled = Compile.compile_string engine (xmark_q1 ~op ~theta:(Xoshiro.int rng 300)) in
      (* Approximate mode thins tables as they are first materialized: the
         refresh must hold against sampled tables too. *)
      let table_fraction = if Xoshiro.int rng 3 = 0 then Some 0.5 else None in
      tables_match_relation (run_seeded ?table_fraction ~seed compiled))

let dblp_authors =
  lazy
    (let engine = Engine.create () in
     let params = { Rox_workload.Dblp.default_gen with reduction = 400 } in
     let venues = [ "VLDB"; "ICDE"; "SIGMOD"; "EDBT" ] in
     ignore
       (Rox_workload.Dblp.load ~params engine (List.map Rox_workload.Dblp.find_venue venues)
         : Rox_workload.Dblp.loaded list);
     Compile.compile_string engine
       (Rox_workload.Dblp.query_for (List.map (fun v -> v ^ ".xml") venues)))

let prop_tables_match_dblp =
  qtest ~count:6 "T(v) = distinct final column: DBLP 4-venue author join" QCheck.small_int
    (fun seed -> tables_match_relation (run_seeded ~seed (Lazy.force dblp_authors)))

let suite =
  [
    prop_fuzz;
    Alcotest.test_case "fixed fuzz seeds" `Quick test_fixed_seeds;
    Alcotest.test_case "seed 3: chain from an empty source" `Quick test_seed_empty_chain_source;
    prop_semijoin_refresh;
    prop_text_range_matches;
    prop_tables_match_xmark;
    prop_tables_match_dblp;
  ]
