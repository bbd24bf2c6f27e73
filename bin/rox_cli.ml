(* The ROX query processor CLI.

     rox --doc data/xmark.xml query.xq
     echo 'for $a in doc("x.xml")//author return $a' | rox --doc x.xml -
     rox --doc a.xml --doc b.xml --graph --trace --optimizer rox query.xq

   Documents are parsed, shredded and indexed; the query is compiled to a
   Join Graph and evaluated with the selected optimizer. The answer
   sequence is serialized to stdout (use --count to print only its size,
   --limit to truncate). *)

open Cmdliner

type optimizer = Opt_rox | Opt_greedy | Opt_static | Opt_midquery

let optimizer_conv =
  Arg.enum
    [ ("rox", Opt_rox); ("greedy", Opt_greedy); ("static", Opt_static);
      ("midquery", Opt_midquery) ]

(* An integer flag with a lower bound: an out-of-range value is a usage
   error (exit 124) at argument parsing, never an exception at startup. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s is below the minimum %d" s lo))
    | None -> Error (`Msg (Printf.sprintf "invalid integer %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let read_query = function
  | "-" ->
    let buf = Buffer.create 1024 in
    (try
       while true do
         Buffer.add_channel buf stdin 1
       done
     with End_of_file -> ());
    Buffer.contents buf
  | path ->
    (match open_in_bin path with
     | exception Sys_error m ->
       Printf.eprintf "%s\n" m;
       exit 1
     | ic ->
       let n = in_channel_length ic in
       let s = really_input_string ic n in
       close_in ic;
       s)

let serialize_node engine (doc_id, pre) =
  let doc = (Rox_storage.Engine.get engine doc_id).Rox_storage.Engine.doc in
  match Rox_shred.Doc.kind doc pre with
  | Rox_shred.Nodekind.Elem ->
    let rec build p =
      match Rox_shred.Doc.kind doc p with
      | Rox_shred.Nodekind.Elem ->
        let attrs =
          Rox_shred.Navigation.attributes doc p
          |> Array.to_list
          |> List.map (fun a ->
                 { Rox_xmldom.Tree.name = Rox_xmldom.Qname.of_string (Rox_shred.Doc.name doc a);
                   value = Rox_shred.Doc.value doc a })
        in
        let children =
          Rox_shred.Navigation.children doc p |> Array.to_list |> List.map build
        in
        Rox_xmldom.Tree.Element
          { Rox_xmldom.Tree.tag = Rox_xmldom.Qname.of_string (Rox_shred.Doc.name doc p);
            attrs; children }
      | Rox_shred.Nodekind.Text -> Rox_xmldom.Tree.Text (Rox_shred.Doc.value doc p)
      | Rox_shred.Nodekind.Comment -> Rox_xmldom.Tree.Comment (Rox_shred.Doc.value doc p)
      | Rox_shred.Nodekind.Pi ->
        Rox_xmldom.Tree.Pi (Rox_shred.Doc.name doc p, Rox_shred.Doc.value doc p)
      | Rox_shred.Nodekind.Attr | Rox_shred.Nodekind.Doc ->
        Rox_xmldom.Tree.Text ""
    in
    (match build pre with
     | Rox_xmldom.Tree.Element _ as e ->
       Rox_xmldom.Xml_writer.to_string (Rox_xmldom.Tree.document e)
     | _ -> assert false)
  | Rox_shred.Nodekind.Text -> Rox_xmldom.Xml_writer.escape_text (Rox_shred.Doc.value doc pre)
  | Rox_shred.Nodekind.Attr ->
    Printf.sprintf "%s=\"%s\"" (Rox_shred.Doc.name doc pre)
      (Rox_xmldom.Xml_writer.escape_attr (Rox_shred.Doc.value doc pre))
  | Rox_shred.Nodekind.Comment -> Printf.sprintf "<!--%s-->" (Rox_shred.Doc.value doc pre)
  | Rox_shred.Nodekind.Pi ->
    Printf.sprintf "<?%s %s?>" (Rox_shred.Doc.name doc pre) (Rox_shred.Doc.value doc pre)
  | Rox_shred.Nodekind.Doc -> "<!-- document root -->"

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let run docs query_file show_graph show_trace optimizer tau seed deadline_ms
    max_sampled_rows count_only limit cache_mb cache_stats profile
    trace_out metrics_out slow_log slow_ms =
  (* The slow log needs span timings, so --slow-log arms the sink too. *)
  let telemetry_on =
    profile || trace_out <> None || metrics_out <> None || slow_log <> None
  in
  let sink = Rox_telemetry.Sink.create ~enabled:telemetry_on () in
  let engine = Rox_storage.Engine.create () in
  List.iter
    (fun path ->
      let tree =
        try Rox_xmldom.Xml_parser.parse_file path with
        | Rox_xmldom.Xml_parser.Parse_error { line; column; message } ->
          Printf.eprintf "%s:%d:%d: parse error: %s\n" path line column message;
          exit 1
        | Sys_error m ->
          Printf.eprintf "%s\n" m;
          exit 1
      in
      let uri = Filename.basename path in
      ignore (Rox_storage.Engine.add_tree engine ~uri tree : Rox_storage.Engine.docref);
      Printf.eprintf "loaded %s as doc(%S)\n" path uri)
    docs;
  let source = read_query query_file in
  let compiled =
    try Rox_xquery.Compile.compile_string ~telemetry:sink engine source with
    | Rox_xquery.Parser.Parse_error m ->
      Printf.eprintf "query parse error: %s\n" m;
      exit 1
    | Rox_xquery.Compile.Unsupported m ->
      Printf.eprintf "unsupported query: %s\n" m;
      exit 1
  in
  if show_graph then prerr_string (Rox_joingraph.Pretty.to_string compiled.Rox_xquery.Compile.graph);
  let cache =
    if cache_mb > 0 then Some (Rox_cache.Store.of_megabytes engine cache_mb)
    else None
  in
  if (cache_mb > 0 || cache_stats)
     && not (optimizer = Opt_rox || optimizer = Opt_greedy)
  then
    Printf.eprintf
      "note: --cache-mb/--cache-stats only apply to the rox and greedy optimizers\n";
  (* Everything a run may touch is owned by one explicit session built
     from the command-line flags. *)
  let budgets =
    { Rox_core.Session.default_budgets with
      deadline_ms = (if deadline_ms > 0 then Some deadline_ms else None);
      max_sampled_rows =
        (if max_sampled_rows > 0 then Some max_sampled_rows else None) }
  in
  let session_config use_chain =
    { (Rox_core.Session.default_config ()) with
      Rox_core.Session.tau; seed; use_chain; budgets }
  in
  (* Telemetry outputs are written on success AND on a budget abort — an
     aborted run's partial profile is exactly what one wants to inspect. *)
  let emit_telemetry ?work_units () =
    if telemetry_on then begin
      let m = Rox_telemetry.Sink.metrics sink in
      (match cache with Some store -> Rox_cache.Store.observe_into store m | None -> ());
      (match trace_out with
       | Some path ->
         write_file path (Rox_telemetry.Export.chrome_trace [ (0, sink) ]);
         Printf.eprintf "wrote Chrome trace (%d span(s)) to %s\n"
           (Rox_telemetry.Sink.span_count sink) path
       | None -> ());
      (match metrics_out with
       | Some path ->
         write_file path (Rox_telemetry.Export.prometheus m);
         Printf.eprintf "wrote metrics to %s\n" path
       | None -> ());
      if profile then prerr_string (Rox_telemetry.Export.profile ?work_units m)
    end
  in
  (* The flight recorder rides along only to feed the slow log here: a
     one-shot run has no scrape surface, so it is built when (and only
     when) --slow-log asks for the JSONL. *)
  let recorder =
    match slow_log with
    | None -> None
    | Some path ->
      Some (Rox_telemetry.Recorder.create ?slow_ms ~slow_log:path ())
  in
  let cur_session = ref None in
  let t0 = Unix.gettimeofday () in
  let latency_ns () = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  let flight session ~plan ~status =
    match recorder with
    | None -> ()
    | Some rc ->
      ignore
        (Rox_core.Session.flight_record session rc ~query:source ~plan
           ~latency_ns:(latency_ns ()) ~status
          : Rox_telemetry.Recorder.record);
      (match slow_log with
       | Some path ->
         Printf.eprintf "slow-log: %d line(s) written to %s\n"
           (Rox_telemetry.Recorder.log_lines rc) path
       | None -> ());
      Rox_telemetry.Recorder.close rc
  in
  let answer, counter, plan_session =
    try
      match optimizer with
      | Opt_rox | Opt_greedy ->
        let session =
          Rox_core.Session.create
            ~config:(session_config (optimizer = Opt_rox))
            ?cache ~telemetry:sink ()
        in
        cur_session := Some session;
        let answer, result = Rox_core.Optimizer.answer session compiled in
        if show_trace then begin
          List.iter
            (fun id ->
              let e = Rox_joingraph.Graph.edge compiled.Rox_xquery.Compile.graph id in
              Printf.eprintf "executed edge %d: %s\n" id
                (Rox_joingraph.Pretty.edge_line compiled.Rox_xquery.Compile.graph e))
            result.Rox_core.Optimizer.edge_order
        end;
        ( answer, result.Rox_core.Optimizer.counter,
          (result.Rox_core.Optimizer.edge_order, session) )
      | Opt_static ->
        let order =
          Rox_classical.Classical_opt.static_order engine compiled.Rox_xquery.Compile.graph
        in
        let session =
          Rox_core.Session.create ~config:(session_config false) ~telemetry:sink ()
        in
        cur_session := Some session;
        let answer, run = Rox_classical.Executor.answer session compiled order in
        ( answer, run.Rox_classical.Executor.counter,
          (List.map (fun e -> e.Rox_joingraph.Edge.id) order, session) )
      | Opt_midquery ->
        let session =
          Rox_core.Session.create ~config:(session_config false) ~telemetry:sink ()
        in
        cur_session := Some session;
        let answer, run = Rox_classical.Midquery.answer session compiled in
        Printf.eprintf "mid-query re-optimizations: %d\n" run.Rox_classical.Midquery.replans;
        (answer, run.Rox_classical.Midquery.counter, ([], session))
    with Rox_algebra.Cost.Budget_exceeded { reason; _ } as exn ->
      (match Rox_algebra.Cost.budget_message exn with
       | Some m -> Printf.eprintf "aborted: %s\n" m
       | None -> ());
      emit_telemetry ();
      (* An aborted run still slow-logs: errored records always write. *)
      (match !cur_session with
       | Some session ->
         let status =
           match reason with
           | Rox_algebra.Cost.Deadline -> "deadline"
           | Rox_algebra.Cost.Sampled_rows -> "sampled_rows"
         in
         flight session ~plan:[] ~status
       | None -> ());
      exit 2
  in
  let dt = Unix.gettimeofday () -. t0 in
  let plan, session = plan_session in
  flight session ~plan ~status:"ok";
  Printf.eprintf "answer: %d nodes; work: sampling=%d execution=%d; %.3fs\n"
    (Array.length answer)
    (Rox_algebra.Cost.read counter Rox_algebra.Cost.Sampling)
    (Rox_algebra.Cost.read counter Rox_algebra.Cost.Execution)
    dt;
  emit_telemetry
    ~work_units:
      ( Rox_algebra.Cost.read counter Rox_algebra.Cost.Sampling,
        Rox_algebra.Cost.read counter Rox_algebra.Cost.Execution )
    ();
  (match cache with
   | Some store when cache_stats ->
     prerr_string (Rox_cache.Store.stats_to_string (Rox_cache.Store.stats store))
   | _ -> ());
  if count_only then Printf.printf "%d\n" (Array.length answer)
  else begin
    let return_doc =
      (Rox_joingraph.Graph.vertex compiled.Rox_xquery.Compile.graph
         compiled.Rox_xquery.Compile.tail.Rox_xquery.Tail.return_vertex)
        .Rox_joingraph.Vertex.doc_id
    in
    Array.iteri
      (fun i pre ->
        if limit = 0 || i < limit then
          print_endline (serialize_node engine (return_doc, pre)))
      answer;
    if limit > 0 && Array.length answer > limit then
      Printf.printf "... (%d more)\n" (Array.length answer - limit)
  end

(* ---------------------------------------------------------------------- *)
(* analyze: static analysis + trace verification + contract sanitizer.    *)

module A = Rox_analysis

(* One analysis case: compile, check the graph, run ROX with the sanitizer
   armed and the sink enabled, then replay its event stream, verify the
   executed plan and check the timeline. *)
let analyze_case ?(quiet = false) ~subject engine query =
  match Rox_xquery.Compile.compile_string engine query with
  | exception Rox_xquery.Compile.Rejected d -> A.Report.make ~subject [ d ]
  | exception Rox_xquery.Parser.Parse_error m ->
    A.Report.make ~subject
      [ A.Diagnostic.error "RX000" A.Diagnostic.Graph_loc ("query parse error: " ^ m) ]
  | exception Rox_xquery.Compile.Unsupported m ->
    A.Report.make ~subject
      [ A.Diagnostic.error "RX000" A.Diagnostic.Graph_loc ("unsupported query: " ^ m) ]
  | compiled ->
    let graph = compiled.Rox_xquery.Compile.graph in
    let diags = ref (A.Graph_check.check graph) in
    let sink = Rox_telemetry.Sink.create ~enabled:true () in
    (* The sanitizer is a per-session capability: build an explicit
       sanitize-on session instead of flipping any global flag. *)
    let config =
      { (Rox_core.Session.default_config ()) with Rox_core.Session.sanitize = true }
    in
    let session = Rox_core.Session.create ~config ~telemetry:sink () in
    if not quiet then
      Printf.printf "%s: %s\n" subject (Rox_core.Session.describe session);
    (match
       A.Contract.wrap ~label:subject (fun () ->
           Rox_core.Optimizer.run session compiled)
     with
     | Error d -> diags := !diags @ [ d ]
     | Ok result ->
       diags :=
         !diags
         @ A.Trace_check.check graph sink
         @ A.Plan_check.check graph result.Rox_core.Optimizer.edge_order
         @ A.Telemetry_check.check sink);
    A.Report.make ~subject !diags

let quickstart_document =
  {|<library>
  <book year="2009"><title>Run-time Query Optimization</title>
    <author>Abdel Kader</author><author>Boncz</author></book>
  <book year="2004"><title>Staircase Join</title>
    <author>Grust</author><author>van Keulen</author><author>Teubner</author></book>
  <book year="2009"><title>Join Graph Isolation</title>
    <author>Grust</author><author>Mayr</author><author>Rittinger</author></book>
</library>|}

let quickstart_query =
  {|for $b in doc("library.xml")//book[./@year = 2009],
    $a in doc("library.xml")//author
where $b//author/text() = $a/text()
return $a|}

let xmark_query op =
  Printf.sprintf
    {|let $d := doc("xmark.xml")
for $o in $d//open_auction[.//current/text() %s 145],
    $p in $d//person[.//province],
    $i in $d//item[./quantity = 1]
where $o//bidder//personref/@person = $p/@id and
      $o//itemref/@item = $i/@id
return $o|}
    op

let showdown_query =
  {|let $d := doc("xmark.xml")
for $o in $d//open_auction[.//current/text() > 145],
    $p in $d//person[.//province]
where $o//bidder//personref/@person = $p/@id
return $o|}

(* The built-in suite: the quickstart query, the Section 3.2 XMark pair
   plus the showdown query, and the Table 3 DBLP author chain. *)
let builtin_cases ?(quiet = false) () =
  let analyze_case = analyze_case ~quiet in
  let quickstart () =
    let engine = Rox_storage.Engine.create () in
    ignore
      (Rox_storage.Engine.add_tree engine ~uri:"library.xml"
         (Rox_xmldom.Xml_parser.parse_string quickstart_document)
        : Rox_storage.Engine.docref);
    [ analyze_case ~subject:"quickstart" engine quickstart_query ]
  in
  let xmark () =
    let engine = Rox_storage.Engine.create () in
    let params = Rox_workload.Xmark.scaled 0.05 in
    ignore
      (Rox_workload.Xmark.generate ~params engine ~uri:"xmark.xml"
        : Rox_storage.Engine.docref);
    [
      analyze_case ~subject:"xmark q1 (current < 145)" engine (xmark_query "<");
      analyze_case ~subject:"xmark qm1 (current > 145)" engine (xmark_query ">");
      analyze_case ~subject:"xmark showdown" engine showdown_query;
    ]
  in
  let dblp () =
    let engine = Rox_storage.Engine.create () in
    let venues = List.map Rox_workload.Dblp.find_venue [ "VLDB"; "ICDE"; "SIGMOD"; "EDBT" ] in
    let params = { Rox_workload.Dblp.default_gen with reduction = 400 } in
    let loaded = Rox_workload.Dblp.load ~params engine venues in
    let uris =
      List.map (fun l -> Rox_workload.Dblp.uri_of l.Rox_workload.Dblp.venue) loaded
    in
    [ analyze_case ~subject:"dblp author chain (4 venues)" engine
        (Rox_workload.Dblp.query_for uris) ]
  in
  quickstart () @ xmark () @ dblp ()

let analyze docs query_file list_codes codes_md explain json =
  if list_codes then begin
    List.iter
      (fun (ci : A.Diagnostic.code_info) ->
        Printf.printf "%s  %s\n" ci.ci_code ci.ci_summary)
      A.Diagnostic.registry;
    0
  end
  else if codes_md then begin
    print_string (A.Diagnostic.registry_markdown ());
    0
  end
  else
    match explain with
    | Some code ->
      (match A.Diagnostic.explain code with
       | Some text ->
         print_string text;
         0
       | None ->
         Printf.eprintf
           "unknown diagnostic code %s (try `rox analyze --codes`)\n" code;
         2)
    | None ->
  begin
    let reports =
      match query_file with
      | None -> builtin_cases ~quiet:json ()
      | Some qf ->
        let engine = Rox_storage.Engine.create () in
        List.iter
          (fun path ->
            let tree =
              try Rox_xmldom.Xml_parser.parse_file path with
              | Rox_xmldom.Xml_parser.Parse_error { line; column; message } ->
                Printf.eprintf "%s:%d:%d: parse error: %s\n" path line column message;
                exit 1
              | Sys_error m ->
                Printf.eprintf "%s\n" m;
                exit 1
            in
            let uri = Filename.basename path in
            ignore (Rox_storage.Engine.add_tree engine ~uri tree : Rox_storage.Engine.docref))
          docs;
        [ analyze_case ~quiet:json ~subject:qf engine (read_query qf) ]
    in
    if json then print_string (A.Report.json_string reports)
    else begin
      List.iter (fun r -> A.Report.print r; print_newline ()) reports;
      let errors = List.fold_left (fun n r -> n + A.Report.errors r) 0 reports in
      let warnings = List.fold_left (fun n r -> n + A.Report.warnings r) 0 reports in
      Printf.printf "analyzed %d case(s): %d error(s), %d warning(s)\n"
        (List.length reports) errors warnings
    end;
    A.Report.exit_code reports
  end

(* ---------------------------------------------------------------------- *)
(* lint: the static mutable-global scan against the capability allowlist. *)

let lint root json list_bindings =
  if list_bindings then begin
    List.iter
      (fun b ->
        Printf.printf "%s:%d: %s %s (%s)\n" b.A.Global_lint.gb_file
          b.A.Global_lint.gb_line
          (A.Capability.kind_string b.A.Global_lint.gb_kind)
          b.A.Global_lint.gb_name b.A.Global_lint.gb_what)
      (A.Global_lint.scan_root root);
    0
  end
  else begin
    let report = A.Global_lint.run ~root in
    if json then print_string (A.Report.json_string [ report ])
    else begin
      A.Report.print report;
      Printf.printf "lint %s: %d error(s), %d warning(s)\n" root
        (A.Report.errors report)
        (A.Report.warnings report)
    end;
    A.Report.exit_code [ report ]
  end

(* ---------------------------------------------------------------------- *)
(* racecheck: the RX5xx dynamic race detector. Default run = fixture      *)
(* sweep (the detector must flag every seeded bug and stay silent on the  *)
(* fixed twins — exit 3 if its teeth are gone) + a recorded replay of the *)
(* multi-domain parallel-serving workload, which must come back clean.    *)

let racecheck_workload ~domains ~iters ~scale () =
  let serve_diags = ref [] in
  let race_diags =
    A.Race_fixtures.with_recording (fun () ->
        (* Everything is created *inside* the armed region so every cache,
           engine epoch, aggregate and session registers its site. *)
        let engine = Rox_storage.Engine.create () in
        let params = Rox_workload.Xmark.scaled scale in
        ignore
          (Rox_workload.Xmark.generate ~params engine ~uri:"xmark.xml"
            : Rox_storage.Engine.docref);
        let queries = [ xmark_query "<"; xmark_query ">"; showdown_query ] in
        let compiled_list =
          List.map (Rox_xquery.Compile.compile_string engine) queries
        in
        let cache = Rox_cache.Store.of_megabytes engine 8 in
        let aggregate = Rox_telemetry.Aggregate.create () in
        A.Race_fixtures.fork_join domains (fun _ ->
            for _ = 1 to iters do
              List.iter
                (fun compiled ->
                  let telemetry = Rox_telemetry.Sink.create ~enabled:true () in
                  let session = Rox_core.Session.create ~cache ~telemetry () in
                  let answer =
                    Rox_core.Session.confine session (fun () ->
                        fst (Rox_core.Optimizer.answer session compiled))
                  in
                  ignore (answer : _ array);
                  Rox_telemetry.Aggregate.absorb aggregate
                    (Rox_telemetry.Sink.metrics telemetry))
                compiled_list
            done);
        (* Served pass: the same queries through the serving front-end's
           shared state (admission queue, audit counters)
           — client domains submitting against a 2-worker pool, so the
           recording covers the server's mutex discipline too. *)
        let server =
          Rox_serve.Server.create
            (Rox_serve.Server.config ~cache ~workers:2 ~queue_capacity:64
               engine)
        in
        A.Race_fixtures.fork_join domains (fun i ->
            for _ = 1 to iters do
              List.iter
                (fun q ->
                  let query =
                    Rox_serve.Protocol.query
                      ~client_id:(Printf.sprintf "domain%d" i) q
                  in
                  ignore
                    (Rox_serve.Server.submit server query
                      : Rox_serve.Protocol.response))
                queries
            done);
        Rox_serve.Server.shutdown server;
        serve_diags := Rox_serve.Server.self_check server)
  in
  race_diags @ !serve_diags

let racecheck fixture json domains iters scale =
  match fixture with
  | Some name ->
    (match A.Race_fixtures.find name with
     | None ->
       Printf.eprintf "unknown fixture %s; available: %s\n" name
         (String.concat ", "
            (List.map (fun (n, _, _, _) -> n) A.Race_fixtures.all));
       2
     | Some (n, run, descr, _expected) ->
       let report = A.Report.make ~subject:("racecheck:" ^ n) (run ()) in
       if json then print_string (A.Report.json_string [ report ])
       else begin
         A.Report.print report;
         Printf.printf "racecheck fixture %s (%s): %d error(s), %d warning(s)\n"
           n descr
           (A.Report.errors report)
           (A.Report.warnings report)
       end;
       A.Report.exit_code [ report ])
  | None ->
    (* Self-test: every fixture must produce exactly its expected codes —
       in particular the seeded race must come back RX501. A detector
       that cannot see the planted bug blesses nothing (exit 3). *)
    let codes_of diags =
      List.sort_uniq compare (List.map (fun d -> d.A.Diagnostic.code) diags)
    in
    let failures = ref [] in
    let fixture_reports =
      List.map
        (fun (name, run, _descr, expected) ->
          let diags = run () in
          let got = codes_of diags in
          if got <> List.sort_uniq compare expected then
            failures := (name, expected, got) :: !failures;
          A.Report.make ~subject:("racecheck:" ^ name) diags)
        A.Race_fixtures.all
    in
    if !failures <> [] then begin
      List.iter
        (fun (name, expected, got) ->
          Printf.eprintf "racecheck self-test FAILED: %s expected [%s] got [%s]\n"
            name (String.concat " " expected) (String.concat " " got))
        (List.rev !failures);
      3
    end
    else begin
      let workload = racecheck_workload ~domains ~iters ~scale () in
      let wreport =
        A.Report.make ~subject:"racecheck:parallel-workload" workload
      in
      (* JSON carries only the workload findings (the fixture sweep is a
         self-test, not a finding), so its exit_code field matches the
         process exit. *)
      if json then print_string (A.Report.json_string [ wreport ])
      else begin
        Printf.printf
          "racecheck self-test: %d fixture(s) behaved as seeded\n"
          (List.length fixture_reports);
        A.Report.print wreport
      end;
      A.Report.exit_code [ wreport ]
    end

(* ---------------------------------------------------------------------- *)
(* serve: the protocol front-end over a worker-domain pool. Real mode     *)
(* listens on a Unix or TCP socket; --smoke runs a scripted client over a *)
(* socketpair against an in-process XMark engine (`make serve-smoke`).    *)

module Serve = Rox_serve.Server
module Sproto = Rox_serve.Protocol

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let serve_smoke scale slow_log slow_ms =
  let engine = Rox_storage.Engine.create () in
  let params = Rox_workload.Xmark.scaled scale in
  ignore
    (Rox_workload.Xmark.generate ~params engine ~uri:"xmark.xml"
      : Rox_storage.Engine.docref);
  let cache = Rox_cache.Store.of_megabytes engine 8 in
  let server =
    Serve.create
      (Serve.config ~cache ~workers:2 ~queue_capacity:16 ?slow_ms ?slow_log
         engine)
  in
  let srv_fd, cli_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let handler = Thread.create (fun () -> Serve.handle_connection server srv_fd) () in
  let decoder = Sproto.decoder () in
  let send req = Sproto.write_frame cli_fd (Sproto.render_request req) in
  let recv () =
    match Sproto.read_frame cli_fd decoder with
    | `Frame payload ->
      (match Sproto.parse_response payload with
       | Ok r -> r
       | Error m -> failwith ("bad response: " ^ m))
    | `Eof -> failwith "unexpected EOF"
    | `Corrupt m -> failwith ("corrupt response stream: " ^ m)
  in
  let failures = ref 0 in
  let check name ok =
    Printf.printf "serve-smoke: %-32s %s\n" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  send Sproto.Ping;
  check "ping" (recv () = Sproto.Pong);
  let q = Sproto.query ~client_id:"smoke" (xmark_query "<") in
  send (Sproto.Query q);
  let r1 = recv () in
  check "query answers"
    (match r1 with Sproto.Answer a -> a.total > 0 | _ -> false);
  send (Sproto.Query q);
  let r2 = recv () in
  check "repeat query bit-identical"
    (match (r1, r2) with
     | Sproto.Answer a, Sproto.Answer b -> a.ids = b.ids && a.total = b.total
     | _ -> false);
  send (Sproto.Query (Sproto.query ~max_sampled_rows:1 (xmark_query ">")));
  check "budget abort is an ERR reply"
    (match recv () with Sproto.Err (Sproto.Sampled_rows, _) -> true | _ -> false);
  send Sproto.Stats;
  let stats = match recv () with Sproto.Stats_reply kvs -> kvs | _ -> [] in
  let stat k = try List.assoc k stats with Not_found -> "<absent>" in
  check "stats requests=5" (stat "requests" = "5");
  check "stats executed=3" (stat "executed" = "3");
  check "stats rejected=0" (stat "rejected" = "0");
  check "stats tenant.smoke=2" (stat "tenant.smoke" = "2");
  (* Flight recorder: every record is visible before its reply, so the
     counts right after the three query answers are deterministic. *)
  check "stats records=3" (stat "records" = "3");
  check "stats records_dropped=0" (stat "records_dropped" = "0");
  check "stats uptime_ms present" (stat "uptime_ms" <> "<absent>");
  check "stats started_at present" (stat "started_at" <> "<absent>");
  check "stats traces_retained >= 1"
    (match int_of_string_opt (stat "traces_retained") with
     | Some n -> n >= 1
     | None -> false);
  send Sproto.Metrics;
  let mtext =
    match recv () with Sproto.Metrics_reply s -> s | _ -> ""
  in
  check "metrics has recorder series"
    (contains_substring mtext "rox_recorder_records_total");
  check "metrics has tenant series"
    (contains_substring mtext "rox_tenant_requests_total");
  send (Sproto.Recent 10);
  let recent_lines =
    match recv () with Sproto.Recent_reply l -> l | _ -> []
  in
  check "recent returns 3 records" (List.length recent_lines = 3);
  let recent_json =
    List.filter_map
      (fun l -> Result.to_option (Rox_util.Minijson.parse l))
      recent_lines
  in
  check "recent lines are JSON"
    (List.length recent_json = List.length recent_lines);
  (* The budget-aborted query errored, so its trace is always retained:
     fetch it over the wire and validate the Chrome export. *)
  let retained_id =
    List.fold_left
      (fun acc json ->
        match acc with
        | Some _ -> acc
        | None ->
          (match Rox_util.Minijson.member "retained" json with
           | Some Rox_util.Minijson.Null | None -> None
           | Some _ ->
             Option.bind
               (Option.bind
                  (Rox_util.Minijson.member "trace_id" json)
                  Rox_util.Minijson.to_num_opt)
               (fun f -> Some (int_of_float f))))
      None recent_json
  in
  check "recent shows a retained record" (retained_id <> None);
  (match retained_id with
   | None -> ()
   | Some id ->
     send (Sproto.Trace_get id);
     (match recv () with
      | Sproto.Trace_reply (rid, json) ->
        check "trace id echoes" (rid = id);
        let valid =
          match Rox_util.Minijson.parse json with
          | Error _ -> false
          | Ok parsed ->
            (match Rox_telemetry.Export.validate_chrome parsed with
             | Ok _ -> true
             | Error _ -> false)
        in
        check "trace exports valid Chrome JSON" valid;
        (* The retained timeline carries the optimizer's events beside the
           spans, even for a request its budget cut short. *)
        check "trace carries optimizer events"
          (List.exists
             (fun name -> contains_substring json (Printf.sprintf "\"name\": %S" name))
             [ "vertex_initialized"; "edge_weighted"; "chain_round"; "edge_executed" ]);
        (match slow_log with
         | Some path ->
           let out = path ^ ".trace.json" in
           write_file out json;
           Printf.printf "serve-smoke: wrote retained trace %d to %s\n" id out
         | None -> ())
      | _ -> check "trace reply" false));
  send (Sproto.Trace_get 999_999);
  check "unknown trace id is ERR not_found"
    (match recv () with
     | Sproto.Err (Sproto.Unknown_id, _) -> true
     | _ -> false);
  send Sproto.Quit;
  check "quit acknowledged" (recv () = Sproto.Bye);
  Thread.join handler;
  Serve.shutdown server;
  check "audit self-check clean" (Serve.self_check server = []);
  let rc = Option.get (Serve.recorder server) in
  check "recorder records=3 after shutdown"
    (Rox_telemetry.Recorder.records rc = 3);
  check "recorder RX7xx clean"
    (A.Recorder_check.check ~submitted:3 rc = []);
  (match slow_log with
   | Some path ->
     (* Every slow-log line must parse; the errored request always
        logs, so the file is never empty. *)
     let lines = ref [] in
     (try
        let ic = open_in path in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> close_in ic)
      with Sys_error _ -> ());
     let parsed =
       List.filter_map
         (fun l -> Result.to_option (Rox_util.Minijson.parse l))
         !lines
     in
     check "slow-log non-empty" (!lines <> []);
     check "slow-log lines parse as JSON"
       (List.length parsed = List.length !lines);
     check "slow-log reconciles with recorder"
       (List.length !lines = Rox_telemetry.Recorder.log_lines rc)
   | None -> ());
  (try Unix.close cli_fd with Unix.Unix_error _ -> ());
  Printf.printf "serve-smoke: %s\n" (if !failures = 0 then "PASS" else "FAIL");
  if !failures = 0 then 0 else 1

let serve_run docs socket port workers queue_cap max_conns cache_mb smoke scale
    slow_log slow_ms =
  if smoke then serve_smoke scale slow_log slow_ms
  else begin
    let engine = Rox_storage.Engine.create () in
    List.iter
      (fun path ->
        let tree =
          try Rox_xmldom.Xml_parser.parse_file path with
          | Rox_xmldom.Xml_parser.Parse_error { line; column; message } ->
            Printf.eprintf "%s:%d:%d: parse error: %s\n" path line column message;
            exit 1
          | Sys_error m ->
            Printf.eprintf "%s\n" m;
            exit 1
        in
        let uri = Filename.basename path in
        ignore (Rox_storage.Engine.add_tree engine ~uri tree : Rox_storage.Engine.docref);
        Printf.eprintf "loaded %s as doc(%S)\n" path uri)
      docs;
    if docs = [] then
      Printf.eprintf "warning: no --doc given; every doc() reference will fail\n";
    let cache =
      if cache_mb > 0 then Some (Rox_cache.Store.of_megabytes engine cache_mb)
      else None
    in
    let server =
      Serve.create
        (Serve.config ?cache ~workers ~queue_capacity:queue_cap
           ~max_connections:max_conns ?slow_ms ?slow_log engine)
    in
    let fd =
      match socket with
      | Some path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 64;
        Printf.eprintf "rox serve: listening on %s (%d worker(s), queue %d)\n"
          path workers queue_cap;
        fd
      | None ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen fd 64;
        Printf.eprintf
          "rox serve: listening on 127.0.0.1:%d (%d worker(s), queue %d)\n"
          port workers queue_cap;
        fd
    in
    Serve.serve server fd;
    Serve.shutdown server;
    0
  end

(* ---------------------------------------------------------------------- *)
(* profile: the built-in XMark workload under full telemetry — the self-  *)
(* contained run behind `make profile-smoke` (no external files needed).  *)

let profile_builtin trace_out metrics_out repeat scale slow_log slow_ms =
  let engine = Rox_storage.Engine.create () in
  let params = Rox_workload.Xmark.scaled scale in
  ignore
    (Rox_workload.Xmark.generate ~params engine ~uri:"xmark.xml"
      : Rox_storage.Engine.docref);
  let sink = Rox_telemetry.Sink.create ~enabled:true () in
  let cache = Rox_cache.Store.of_megabytes engine 8 in
  let recorder =
    match slow_log with
    | None -> None
    | Some path ->
      Some (Rox_telemetry.Recorder.create ?slow_ms ~slow_log:path ())
  in
  let sampling = ref 0 and execution = ref 0 in
  let queries = [ xmark_query "<"; xmark_query ">"; showdown_query ] in
  for _ = 1 to max 1 repeat do
    List.iter
      (fun q ->
        let compiled = Rox_xquery.Compile.compile_string ~telemetry:sink engine q in
        let session = Rox_core.Session.create ~cache ~telemetry:sink () in
        let t0 = Unix.gettimeofday () in
        let answer, result = Rox_core.Optimizer.answer session compiled in
        ignore (answer : _ array);
        let c = result.Rox_core.Optimizer.counter in
        sampling := !sampling + Rox_algebra.Cost.read c Rox_algebra.Cost.Sampling;
        execution := !execution + Rox_algebra.Cost.read c Rox_algebra.Cost.Execution;
        match recorder with
        | None -> ()
        | Some rc ->
          ignore
            (Rox_core.Session.flight_record session rc ~query:q
               ~plan:result.Rox_core.Optimizer.edge_order
               ~latency_ns:
                 (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))
               ~status:"ok"
              : Rox_telemetry.Recorder.record))
      queries
  done;
  (match (recorder, slow_log) with
   | Some rc, Some path ->
     Printf.eprintf "slow-log: %d line(s) written to %s\n"
       (Rox_telemetry.Recorder.log_lines rc) path;
     Rox_telemetry.Recorder.close rc
   | _ -> ());
  let m = Rox_telemetry.Sink.metrics sink in
  Rox_cache.Store.observe_into cache m;
  (match trace_out with
   | Some path ->
     write_file path (Rox_telemetry.Export.chrome_trace [ (0, sink) ]);
     Printf.eprintf "wrote Chrome trace (%d span(s)) to %s\n"
       (Rox_telemetry.Sink.span_count sink) path
   | None -> ());
  (match metrics_out with
   | Some path ->
     write_file path (Rox_telemetry.Export.prometheus m);
     Printf.eprintf "wrote metrics to %s\n" path
   | None -> ());
  print_string (Rox_telemetry.Export.profile ~work_units:(!sampling, !execution) m);
  0

let trace_validate file =
  let content = read_query file in
  match Rox_util.Minijson.parse content with
  | Error e ->
    Printf.eprintf "%s: JSON parse error: %s\n" file e;
    1
  | Ok json ->
    (match Rox_telemetry.Export.validate_chrome json with
     | Error e ->
       Printf.eprintf "%s: invalid Chrome trace: %s\n" file e;
       1
     | Ok n ->
       Printf.printf "%s: valid Chrome trace (%d complete event(s))\n" file n;
       0)

(* ---------------------------------------------------------------------- *)
(* stat: the scrape client — one request (STATS, METRICS, RECENT or       *)
(* TRACE) against a running rox serve, result on stdout.                  *)

let stat_run socket port metrics recent trace_id out =
  let addr =
    match socket with
    | Some path -> Unix.ADDR_UNIX path
    | None -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
  in
  let fd =
    let domain = match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Printf.eprintf "rox stat: cannot connect to %s: %s\n"
        (match socket with
         | Some p -> p
         | None -> Printf.sprintf "127.0.0.1:%d" port)
        (Unix.error_message e);
      exit 2
  in
  let decoder = Sproto.decoder () in
  let send req = Sproto.write_frame fd (Sproto.render_request req) in
  let recv () =
    match Sproto.read_frame fd decoder with
    | `Frame payload ->
      (match Sproto.parse_response payload with
       | Ok r -> r
       | Error m ->
         Printf.eprintf "rox stat: bad response: %s\n" m;
         exit 2)
    | `Eof ->
      Printf.eprintf "rox stat: server closed the connection\n";
      exit 2
    | `Corrupt m ->
      Printf.eprintf "rox stat: corrupt response stream: %s\n" m;
      exit 2
  in
  let req =
    if metrics then Sproto.Metrics
    else
      match (recent, trace_id) with
      | Some n, _ -> Sproto.Recent n
      | None, Some id -> Sproto.Trace_get id
      | None, None -> Sproto.Stats
  in
  send req;
  let code =
    match recv () with
    | Sproto.Stats_reply kvs ->
      List.iter (fun (k, v) -> Printf.printf "%s=%s\n" k v) kvs;
      0
    | Sproto.Metrics_reply text ->
      print_string text;
      0
    | Sproto.Recent_reply lines ->
      List.iter print_endline lines;
      0
    | Sproto.Trace_reply (id, json) ->
      (match out with
       | Some path ->
         write_file path json;
         Printf.eprintf "wrote trace %d to %s\n" id path
       | None -> print_endline json);
      0
    | Sproto.Err (kind, m) ->
      Printf.eprintf "ERR %s %s\n" (Sproto.err_kind_label kind) m;
      1
    | _ ->
      Printf.eprintf "rox stat: unexpected reply\n";
      1
  in
  send Sproto.Quit;
  (match recv () with Sproto.Bye -> () | _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  code

let docs_arg =
  Arg.(value & opt_all string [] & info [ "doc" ] ~docv:"FILE"
         ~doc:"XML document to load (repeatable); referenced in the query as doc(\"basename\").")

let trace_out_arg =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Write the telemetry spans as Chrome trace-event JSON to $(docv) \
               (load it in Perfetto or chrome://tracing).")

let metrics_out_arg =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
         ~doc:"Write the metrics registry in Prometheus text exposition format \
               to $(docv).")

let slow_log_arg =
  Arg.(value & opt (some string) None & info [ "slow-log" ] ~docv:"FILE"
         ~doc:"Append one structured JSONL line (trace id, fingerprint, \
               tenant, plan digest, latency, budget spend, cache counters, \
               per-edge timings) to $(docv) for every request that errored \
               or ran at least $(b,--slow-ms) milliseconds.")

let slow_ms_arg =
  Arg.(value & opt (some (int_at_least 0)) None & info [ "slow-ms" ] ~docv:"MS"
         ~doc:"Slow-query threshold for $(b,--slow-log) in milliseconds, at \
               least 0 (default 100; 0 logs every request).")

let serve_cmd =
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix-domain socket at $(docv) instead of TCP.")
  in
  let port =
    Arg.(value & opt int 7077 & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port on 127.0.0.1 (default 7077; ignored with --socket).")
  in
  let workers =
    Arg.(value & opt (int_at_least 1) 2 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains executing queries, at least 1 (default 2).")
  in
  let queue_cap =
    Arg.(value & opt (int_at_least 1) 64 & info [ "queue-cap" ] ~docv:"N"
           ~doc:"Admission-queue capacity, at least 1; a full queue answers \
                 ERR busy (default 64).")
  in
  let max_conns =
    Arg.(value & opt (int_at_least 1) 256 & info [ "max-conns" ] ~docv:"N"
           ~doc:"Concurrent-connection cap, at least 1; an over-limit \
                 connection is answered one ERR busy frame and closed \
                 (default 256).")
  in
  let cache_mb =
    Arg.(value & opt int 0 & info [ "cache-mb" ] ~docv:"MB"
           ~doc:"Cross-query cache budget shared by all workers (0 = off).")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"Self-test: serve an in-process XMark engine to a scripted \
                 client over a socketpair, assert the protocol replies and \
                 the STATS counters, and exit 0/1 (behind $(b,make serve-smoke)).")
  in
  let scale =
    Arg.(value & opt float 0.02 & info [ "scale" ] ~docv:"F"
           ~doc:"XMark scale factor for the --smoke engine (default 0.02).")
  in
  let doc =
    "Serve queries over a length-prefixed socket protocol (QUERY/PING/STATS/\
     METRICS/RECENT/TRACE/QUIT) with bounded admission, a worker-domain pool \
     that executes every admitted request once over a shared cross-query \
     cache, and an always-on flight recorder (request records, tail-sampled traces, \
     optional $(b,--slow-log) JSONL). Budget overruns answer as structured \
     ERR replies (the served counterpart of the one-shot CLI's exit 2), \
     never as dropped connections."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const serve_run $ docs_arg $ socket $ port $ workers $ queue_cap
          $ max_conns $ cache_mb $ smoke $ scale $ slow_log_arg
          $ slow_ms_arg)

let stat_cmd =
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Connect to a Unix-domain socket at $(docv) instead of TCP.")
  in
  let port =
    Arg.(value & opt int 7077 & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port on 127.0.0.1 (default 7077; ignored with --socket).")
  in
  let metrics =
    Arg.(value & flag & info [ "metrics" ]
           ~doc:"Scrape the Prometheus text exposition (METRICS) instead of \
                 the STATS key/value reply.")
  in
  let recent =
    Arg.(value & opt (some int) None & info [ "recent" ] ~docv:"N"
           ~doc:"Fetch the flight recorder's N newest request records as \
                 JSONL (RECENT).")
  in
  let trace_id =
    Arg.(value & opt (some int) None & info [ "trace" ] ~docv:"ID"
           ~doc:"Fetch one retained trace by id as Chrome trace-event JSON \
                 (TRACE); exits 1 with ERR not_found if the id was never \
                 retained or has been evicted.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"With --trace, write the JSON to $(docv) instead of stdout \
                 (feed it to $(b,rox trace-validate)).")
  in
  let doc =
    "Scrape a running $(b,rox serve): STATS key/values by default, or \
     $(b,--metrics) (Prometheus text), $(b,--recent N) (request records as \
     JSONL), $(b,--trace ID) (one retained trace as Chrome trace-event \
     JSON). Exits 2 when the server is unreachable, 1 on an ERR reply."
  in
  Cmd.v (Cmd.info "stat" ~doc)
    Term.(const stat_run $ socket $ port $ metrics $ recent $ trace_id $ out)

let profile_cmd =
  let repeat =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Run the workload N times (cache effects show from the second \
                 pass on).")
  in
  let scale =
    Arg.(value & opt float 0.05 & info [ "scale" ] ~docv:"F"
           ~doc:"XMark scale factor for the generated document (default 0.05).")
  in
  let doc =
    "Run the built-in XMark workload with telemetry enabled and print the \
     profile summary (sampling vs execution wall-clock next to the work-unit \
     split). With $(b,--trace-out) / $(b,--metrics-out) also export the spans \
     and metrics — the self-contained run behind $(b,make profile-smoke)."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const profile_builtin $ trace_out_arg $ metrics_out_arg $ repeat
          $ scale $ slow_log_arg $ slow_ms_arg)

let trace_validate_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Chrome trace-event JSON file (or - for stdin).")
  in
  let doc =
    "Validate a Chrome trace-event JSON file produced by $(b,--trace-out): \
     parse it, check the trace-event schema, and verify span well-nesting \
     per thread lane. Exits 1 on any violation."
  in
  Cmd.v (Cmd.info "trace-validate" ~doc) Term.(const trace_validate $ file)

let json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the diagnostics as JSON on stdout (stable keys: reports, \
               errors, warnings, exit_code) instead of rendered text.")

let analyze_cmd =
  let query_file =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY"
           ~doc:"XQuery file to analyze (with --doc); omit to run the built-in suite.")
  in
  let list_codes =
    Arg.(value & flag & info [ "codes" ] ~doc:"List the diagnostic codes and exit.")
  in
  let codes_md =
    Arg.(value & flag & info [ "codes-md" ]
           ~doc:"Print the full diagnostic-code registry as a Markdown table \
                 (the generated section in DESIGN.md) and exit.")
  in
  let explain =
    Arg.(value & opt (some string) None & info [ "explain" ] ~docv:"CODE"
           ~doc:"Print the long explanation for one diagnostic code (e.g. \
                 $(b,RX501)) and exit; unknown codes exit 2.")
  in
  let doc =
    "Static analysis: check Join Graphs, verify optimizer traces and executed \
     plans, and run the operator-contract sanitizer over the built-in workloads \
     (or a supplied query). Exits non-zero if any error diagnostic is found."
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const analyze $ docs_arg $ query_file $ list_codes $ codes_md
          $ explain $ json_arg)

let lint_cmd =
  let root =
    Arg.(value & opt string "lib" & info [ "root" ] ~docv:"DIR"
           ~doc:"Directory tree to scan (default $(b,lib)).")
  in
  let list_bindings =
    Arg.(value & flag & info [ "list" ]
           ~doc:"Print every mutable global and mutable field the scanner \
                 finds (the inventory behind the allowlist) and exit 0.")
  in
  let doc =
    "Static mutable-state lint: scan the sources for top-level mutable \
     globals and mutable record fields, and fail (RX510) on any not covered \
     by a guarded entry in the capability allowlist. Stale allowlist entries \
     are RX511 warnings. Exits 1 on undocumented mutable state."
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const lint $ root $ json_arg $ list_bindings)

let racecheck_cmd =
  let fixture =
    Arg.(value & opt (some string) None & info [ "fixture" ] ~docv:"NAME"
           ~doc:"Run one seeded fixture and report its diagnostics (exit 1 \
                 when they contain errors — the seeded-race fixture does). \
                 Omit to run the full self-test plus the multi-domain \
                 workload replay.")
  in
  let domains =
    Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N"
           ~doc:"Worker domains for the workload replay (default 4).")
  in
  let iters =
    Arg.(value & opt int 2 & info [ "iters" ] ~docv:"N"
           ~doc:"Passes over the query list per domain (default 2).")
  in
  let scale =
    Arg.(value & opt float 0.02 & info [ "scale" ] ~docv:"F"
           ~doc:"XMark scale factor for the replayed workload (default 0.02).")
  in
  let doc =
    "Dynamic race detection (RX501-RX504): first prove the detector's teeth \
     on the seeded fixtures (every planted bug must be flagged, every fixed \
     twin must be clean — exit 3 otherwise), then record the multi-domain \
     parallel-serving workload and verify it race-free. Exits 1 if the \
     workload itself races."
  in
  Cmd.v (Cmd.info "racecheck" ~doc)
    Term.(const racecheck $ fixture $ json_arg $ domains $ iters $ scale)

let cmd =
  let docs = docs_arg in
  let query_file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY"
           ~doc:"XQuery file, or - for stdin.")
  in
  let show_graph = Arg.(value & flag & info [ "graph" ] ~doc:"Print the isolated Join Graph to stderr.") in
  let show_trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the executed plan (edge execution order) to stderr. The optimizer's full event stream is exported with $(b,--trace-out).") in
  let optimizer =
    Arg.(value & opt optimizer_conv Opt_rox & info [ "optimizer" ] ~docv:"OPT"
           ~doc:"Evaluation strategy: $(b,rox) (run-time optimization with chain sampling), $(b,greedy) (run-time, smallest-weight edge), $(b,static) (compile-time synopsis plan), or $(b,midquery) (static plan with validity-range re-optimization).")
  in
  let tau = Arg.(value & opt int 100 & info [ "tau" ] ~docv:"N" ~doc:"Sample size (default 100).") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Session RNG seed: equal seeds give bit-identical runs.") in
  let deadline_ms =
    Arg.(value & opt int 0 & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Wall-clock budget per query run in milliseconds (0 = none). \
                 Exceeding it aborts the run with a budget error.")
  in
  let max_sampled_rows =
    Arg.(value & opt int 0 & info [ "max-sampled-rows" ] ~docv:"N"
           ~doc:"Budget on total sampled tuples per run (0 = unlimited). \
                 Exceeding it aborts the run with a budget error.")
  in
  let count_only = Arg.(value & flag & info [ "count" ] ~doc:"Print only the answer cardinality.") in
  let limit =
    Arg.(value & opt int 20 & info [ "limit" ] ~docv:"K"
           ~doc:"Serialize at most K answer nodes (0 = all; default 20).")
  in
  let cache_mb =
    Arg.(value & opt int 0 & info [ "cache-mb" ] ~docv:"MB"
           ~doc:"Budget (MiB) for the cross-query cache of materialized edge \
                 executions and sample estimates (0 = off; default 0). Only \
                 affects the rox and greedy optimizers.")
  in
  let cache_stats =
    Arg.(value & flag & info [ "cache-stats" ]
           ~doc:"Print cache hit/miss/eviction counters to stderr after the run \
                 (requires --cache-mb).")
  in
  let profile =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Print the telemetry profile summary (sampling vs execution \
                 wall-clock next to the work-unit split, per-stage latency \
                 quantiles, cache hit ratios) to stderr after the run.")
  in
  let doc = "ROX: run-time optimization of XQueries" in
  let run_term =
    Term.(
      const (fun docs qf g t o tau seed dl msr c l cmb cst p tro mo sl sm ->
          run docs qf g t o tau seed dl msr c l cmb cst p tro mo sl sm;
          0)
      $ docs $ query_file $ show_graph $ show_trace $ optimizer $ tau $ seed
      $ deadline_ms $ max_sampled_rows $ count_only $ limit $ cache_mb
      $ cache_stats $ profile $ trace_out_arg $ metrics_out_arg
      $ slow_log_arg $ slow_ms_arg)
  in
  let group =
    Cmd.group ~default:run_term (Cmd.info "rox" ~doc)
      [ analyze_cmd; lint_cmd; racecheck_cmd; serve_cmd; stat_cmd; profile_cmd;
        trace_validate_cmd ]
  in
  let legacy = Cmd.v (Cmd.info "rox" ~doc) run_term in
  (group, legacy)

(* Cmd.group dispatches on the first argv token, which would reject the
   historical `rox query.xq` spelling as an unknown command: route bare
   positionals that aren't subcommand names to the plain query runner. *)
let () =
  let group, legacy = cmd in
  let bare_positional =
    Array.length Sys.argv > 1
    && String.length Sys.argv.(1) > 0
    && Sys.argv.(1).[0] <> '-'
    && Sys.argv.(1) <> "analyze"
    && Sys.argv.(1) <> "lint"
    && Sys.argv.(1) <> "racecheck"
    && Sys.argv.(1) <> "serve"
    && Sys.argv.(1) <> "stat"
    && Sys.argv.(1) <> "profile"
    && Sys.argv.(1) <> "trace-validate"
  in
  exit (Cmd.eval' (if bare_positional then legacy else group))
