(* The serving front-end: wire protocol totality (framing, truncation,
   junk), bounded admission with backpressure, identical requests each
   executing once with bit-identical answers, budget aborts as structured
   replies, the RX6xx audit checks, and 2-domain end-to-end sessions over
   socketpairs. *)

module P = Rox_serve.Protocol
module S = Rox_serve.Server
module A = Rox_analysis

let codes diags =
  List.sort_uniq compare (List.map (fun d -> d.A.Diagnostic.code) diags)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---------- fixture ---------------------------------------------------- *)

let library_xml =
  {|<library>
  <book year="2009"><title>Run-time Query Optimization</title>
    <author>Abdel Kader</author><author>Boncz</author></book>
  <book year="2004"><title>Staircase Join</title>
    <author>Grust</author><author>van Keulen</author><author>Teubner</author></book>
  <book year="2009"><title>Join Graph Isolation</title>
    <author>Grust</author><author>Mayr</author><author>Rittinger</author></book>
</library>|}

let library_query =
  {|for $b in doc("library.xml")//book[./@year = 2009],
    $a in doc("library.xml")//author
where $b//author/text() = $a/text()
return $a|}

let other_query =
  {|for $b in doc("library.xml")//book[./@year = 2004],
    $a in doc("library.xml")//author
where $b//author/text() = $a/text()
return $a|}

let library_engine () =
  let engine = Rox_storage.Engine.create () in
  ignore
    (Rox_storage.Engine.add_tree engine ~uri:"library.xml"
       (Rox_xmldom.Xml_parser.parse_string library_xml)
      : Rox_storage.Engine.docref);
  engine

(* The reference answer: a plain session run, no server involved. *)
let reference_ids engine query =
  let compiled = Rox_xquery.Compile.compile_string engine query in
  let session = Rox_core.Session.create () in
  fst (Rox_core.Optimizer.answer session compiled)

(* ---------- protocol: render/parse round-trips ------------------------- *)

let test_request_roundtrip () =
  let check r =
    match P.parse_request (P.render_request r) with
    | Ok r' -> Alcotest.(check bool) "request round-trip" true (r = r')
    | Error m -> Alcotest.failf "parse failed: %s" m
  in
  check P.Ping;
  check P.Stats;
  check P.Quit;
  check (P.Query (P.query "for $a in doc(\"x.xml\")//a return $a"));
  check
    (P.Query
       (P.query ~seed:7 ~tau:50 ~deadline_ms:200 ~max_sampled_rows:1000
          ~max_rows:99 ~limit:10 ~client_id:"tenant-1.a"
          "for $a in doc(\"x.xml\")//a\nreturn $a"))

let test_response_roundtrip () =
  let check r =
    match P.parse_response (P.render_response r) with
    | Ok r' -> Alcotest.(check bool) "response round-trip" true (r = r')
    | Error m -> Alcotest.failf "parse failed: %s" m
  in
  check P.Pong;
  check P.Bye;
  check (P.Stats_reply [ ("requests", "3"); ("tenant.local", "2") ]);
  check (P.Err (P.Busy, "admission queue full"));
  check (P.Err (P.Sampled_rows, "budget exceeded: spent 212, budget 1"));
  check (P.Answer { ids = [| 3; 1; 4; 1; 5 |]; total = 5; sampling = 12; execution = 34 });
  check (P.Answer { ids = [||]; total = 0; sampling = 0; execution = 0 })

let test_request_rejects () =
  let bad payload =
    match P.parse_request payload with
    | Ok _ -> Alcotest.failf "accepted %S" payload
    | Error _ -> ()
  in
  bad "";
  bad "FROB";
  bad "QUERY seed=1";                 (* no body *)
  bad "QUERY seed=1\n";               (* empty body *)
  bad "QUERY seed=-3\nq";             (* negative *)
  bad "QUERY seed=abc\nq";            (* junk number *)
  bad "QUERY frobs=1\nq";             (* unknown key *)
  bad "QUERY seed\nq";                (* not k=v *)
  bad "QUERY client_id=a|b\nq";       (* outside the id alphabet *)
  match P.parse_request "QUERY seed=1 tau=5 client_id=ok_id.1-x\nbody" with
  | Ok (P.Query q) ->
    Alcotest.(check string) "client_id" "ok_id.1-x" q.P.client_id;
    Alcotest.(check string) "body" "body" q.P.text
  | _ -> Alcotest.fail "valid QUERY rejected"

(* ---------- protocol: the scrape verbs (METRICS / RECENT / TRACE) ------ *)

let test_scrape_roundtrip () =
  let req r =
    match P.parse_request (P.render_request r) with
    | Ok r' -> Alcotest.(check bool) "request round-trip" true (r = r')
    | Error m -> Alcotest.failf "parse failed: %s" m
  in
  req P.Metrics;
  req (P.Recent 0);
  req (P.Recent 10);
  req (P.Trace_get 42);
  let resp r =
    match P.parse_response (P.render_response r) with
    | Ok r' -> Alcotest.(check bool) "response round-trip" true (r = r')
    | Error m -> Alcotest.failf "parse failed: %s" m
  in
  resp (P.Metrics_reply "# HELP x y\n# TYPE x counter\nx 1\n");
  resp (P.Metrics_reply "");
  resp (P.Recent_reply [ {|{"trace_id":1}|}; {|{"trace_id":2}|} ]);
  resp (P.Recent_reply []);
  resp (P.Trace_reply (7, {|{"traceEvents":[]}|}));
  resp (P.Err (P.Unknown_id, "trace 9 not retained"));
  Alcotest.(check bool) "Unknown_id wire label" true
    (contains
       (P.render_response (P.Err (P.Unknown_id, "x")))
       "not_found");
  let bad payload =
    match P.parse_request payload with
    | Ok _ -> Alcotest.failf "accepted %S" payload
    | Error _ -> ()
  in
  bad "RECENT";          (* missing count *)
  bad "RECENT n=";       (* empty count *)
  bad "RECENT n=-1";     (* negative *)
  bad "RECENT n=abc";    (* junk *)
  bad "TRACE";           (* missing id *)
  bad "TRACE id=junk";
  bad "METRICS now";     (* METRICS takes no argument *)
  (* A RECENT reply must carry exactly as many lines as it declares. *)
  match P.parse_response "RECENT n=2\nonly-one-line" with
  | Ok _ -> Alcotest.fail "line-count mismatch must be rejected"
  | Error _ -> ()

(* ---------- protocol: incremental decoder ------------------------------ *)

let test_decoder_byte_by_byte () =
  let payloads = [ "PING"; "QUERY seed=1\nfor $a in x return $a"; "" ] in
  let stream = String.concat "" (List.map P.frame payloads) in
  let d = P.decoder () in
  let got = ref [] in
  String.iter
    (fun c ->
      P.feed d (String.make 1 c);
      let rec drain () =
        match P.next d with
        | `Frame f ->
          got := f :: !got;
          drain ()
        | `Awaiting -> ()
        | `Corrupt m -> Alcotest.failf "corrupt: %s" m
      in
      drain ())
    stream;
  Alcotest.(check (list string)) "frames" payloads (List.rev !got)

let test_decoder_truncated_awaits () =
  let d = P.decoder () in
  P.feed d "11\nonly4";
  (match P.next d with
   | `Awaiting -> ()
   | _ -> Alcotest.fail "truncated frame must await");
  P.feed d "chars";
  (match P.next d with
   | `Awaiting -> ()
   | _ -> Alcotest.fail "still one byte short");
  P.feed d "!";
  match P.next d with
  | `Frame f -> Alcotest.(check string) "completed" "only4chars!" f
  | _ -> Alcotest.fail "frame must complete"

let test_decoder_corrupt () =
  let corrupt input =
    let d = P.decoder () in
    P.feed d input;
    let rec drain () =
      match P.next d with
      | `Frame _ -> drain ()
      | `Awaiting -> Alcotest.failf "%S must corrupt, got awaiting" input
      | `Corrupt _ -> ()
    in
    drain ()
  in
  corrupt "abc\nPING";                 (* junk header *)
  corrupt "\nPING";                    (* empty header *)
  corrupt "12x\nPING";                 (* mixed header *)
  corrupt "999999999\n";               (* longer than 8 digits *)
  corrupt "xxxxxxxxxxxx";              (* no newline in sight *)
  corrupt (P.frame "PING" ^ "junk\n"); (* corrupt after a good frame *)
  let d = P.decoder ~max_frame:16 () in
  P.feed d "17\n";
  (match P.next d with
   | `Corrupt _ -> ()
   | _ -> Alcotest.fail "oversized declared length must corrupt");
  (* sticky: once corrupt, always corrupt *)
  P.feed d (P.frame "PING");
  match P.next d with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "corruption must be sticky"

(* ---------- admission: bounded queue, backpressure --------------------- *)

let test_admission_rejects_when_full () =
  let engine = library_engine () in
  let server =
    S.create (S.config ~workers:0 ~queue_capacity:1 engine)
  in
  let t1 =
    match S.submit_async server (P.query library_query) with
    | `Ticket t -> t
    | `Rejected -> Alcotest.fail "first submit must be admitted"
  in
  (match S.submit_async server (P.query other_query) with
   | `Rejected -> ()
   | `Ticket _ -> Alcotest.fail "full queue must reject");
  (* An identical request needs a queue slot of its own too. *)
  (match S.submit_async server (P.query ~client_id:"twin" library_query) with
   | `Rejected -> ()
   | `Ticket _ -> Alcotest.fail "full queue must reject an identical request");
  S.shutdown server;
  (match S.await server t1 with
   | P.Err (P.Busy, _) -> ()
   | _ -> Alcotest.fail "shutdown must fail queued tickets as busy");
  let a = S.audit server in
  Alcotest.(check int) "submitted" 3 a.A.Serve_check.sv_submitted;
  Alcotest.(check int) "rejected" 3 a.A.Serve_check.sv_rejected;
  Alcotest.(check int) "executed" 0 a.A.Serve_check.sv_executed;
  Alcotest.(check (list string)) "audit balances" [] (codes (S.self_check server))

(* The slow log's "retained" field names only traces TRACE can fetch. A
   request that never ran (rejected at admission, drained at shutdown, or
   out of deadline in the queue) has no spans to keep, so its line reads
   null; an executed request that errored keeps its tree. *)
let test_slow_log_retained_matches_traces () =
  let engine = library_engine () in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rox_serve_slow_%d.jsonl" (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  let server =
    S.create (S.config ~workers:0 ~queue_capacity:1 ~slow_log:path engine)
  in
  let admit q =
    match S.submit_async server q with
    | `Ticket _ -> ()
    | `Rejected -> Alcotest.fail "an empty queue admits"
  in
  admit (P.query ~max_sampled_rows:1 library_query);
  (match S.submit_async server (P.query library_query) with
   | `Rejected -> ()
   | `Ticket _ -> Alcotest.fail "a full queue rejects");
  Alcotest.(check bool) "budget abort executes" true (S.drain_once server);
  admit (P.query ~deadline_ms:0 library_query);
  Alcotest.(check bool) "queue deadline drains" true (S.drain_once server);
  admit (P.query library_query);
  S.shutdown server;
  let ic = open_in path in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  close_in ic;
  Sys.remove path;
  let module J = Rox_util.Minijson in
  let summary line =
    match J.parse line with
    | Error m -> Alcotest.failf "slow-log line must parse: %s" m
    | Ok j ->
      let field k =
        match J.member k j with
        | Some (J.Str v) -> v
        | Some (J.Num n) -> string_of_int (int_of_float n)
        | Some J.Null -> "null"
        | _ -> Alcotest.failf "slow-log line lacks %s" k
      in
      String.concat " "
        (List.map field [ "trace_id"; "outcome"; "status"; "retained" ])
  in
  Alcotest.(check (list string))
    "one line per request; retained only where a trace was kept"
    [
      "1 executed sampled_rows errored";
      "2 rejected busy null";
      "3 executed deadline null";
      "4 rejected busy null";
    ]
    (List.sort compare
       (List.map summary (List.filter (fun l -> l <> "") lines)));
  let rc = Option.get (S.recorder server) in
  Alcotest.(check int) "only the executed error is retained" 1
    (Rox_telemetry.Recorder.retained_count rc);
  (match S.trace_response server 1 with
   | P.Trace_reply (1, _) -> ()
   | r -> Alcotest.failf "want TRACE reply, got %s" (P.render_response r));
  List.iter
    (fun id ->
      match S.trace_response server id with
      | P.Err (P.Unknown_id, _) -> ()
      | r -> Alcotest.failf "want ERR not_found, got %s" (P.render_response r))
    [ 2; 3; 4 ];
  Alcotest.(check (list string)) "audit clean" [] (codes (S.self_check server))

(* ---------- identical requests: each executes once ------------------- *)

let answer_ids = function
  | P.Answer a -> a.ids
  | r -> Alcotest.failf "expected answer, got %s" (P.render_response r)

let test_identical_requests_execute_each () =
  let engine = library_engine () in
  let server =
    S.create (S.config ~workers:0 ~queue_capacity:4 engine)
  in
  let admit q =
    match S.submit_async server q with
    | `Ticket t -> t
    | `Rejected -> Alcotest.fail "admitted"
  in
  let t1 = admit (P.query library_query) in
  let t2 = admit (P.query ~client_id:"twin" library_query) in
  Alcotest.(check int) "one queue slot each" 2 (S.queue_depth server);
  Alcotest.(check bool) "first drain" true (S.drain_once server);
  Alcotest.(check bool) "second drain" true (S.drain_once server);
  Alcotest.(check bool) "queue empty" false (S.drain_once server);
  let reference = reference_ids engine library_query in
  Alcotest.(check bool) "first matches independent execution" true
    (answer_ids (S.await server t1) = reference);
  Alcotest.(check bool) "second matches independent execution" true
    (answer_ids (S.await server t2) = reference);
  S.shutdown server;
  let a = S.audit server in
  Alcotest.(check int) "executed" 2 a.A.Serve_check.sv_executed;
  Alcotest.(check (list string)) "audit clean" [] (codes (S.self_check server))

(* Two client domains send the same request over their own socketpairs to
   a 2-worker server with a shared cache, so most runs replay warm cache
   entries: every answer must still equal the one-shot reference. *)
let test_concurrent_identical_warm_cache () =
  let engine = library_engine () in
  let seed = 7 and tau = 50 and per_client = 6 in
  let reference =
    let compiled = Rox_xquery.Compile.compile_string engine library_query in
    let config =
      { (Rox_core.Session.default_config ()) with Rox_core.Session.seed; tau }
    in
    fst
      (Rox_core.Optimizer.answer (Rox_core.Session.create ~config ()) compiled)
  in
  let server =
    S.create
      (S.config ~cache:(Rox_cache.Store.create engine) ~workers:2
         ~queue_capacity:16 engine)
  in
  let client cli_fd =
    let d = P.decoder () in
    let send r = P.write_frame cli_fd (P.render_request r) in
    let recv () =
      match P.read_frame cli_fd d with
      | `Frame payload -> (
        match P.parse_response payload with Ok r -> r | Error m -> failwith m)
      | `Eof -> failwith "eof"
      | `Corrupt m -> failwith m
    in
    let answers =
      List.init per_client (fun _ ->
          send (P.Query (P.query ~seed ~tau library_query));
          recv ())
    in
    send P.Quit;
    ignore (recv () : P.response);
    Unix.close cli_fd;
    answers
  in
  let sessions =
    List.init 2 (fun _ ->
        let srv_fd, cli_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let handler = Thread.create (S.handle_connection server) srv_fd in
        (handler, Domain.spawn (fun () -> client cli_fd)))
  in
  let answers =
    List.concat_map
      (fun (handler, client) ->
        let answers = Domain.join client in
        Thread.join handler;
        answers)
      sessions
  in
  S.shutdown server;
  let module Tm = Rox_telemetry.Metrics in
  Alcotest.(check bool) "repeats hit the shared cache" true
    ((S.metrics server).Tm.relation_cache_hits.Tm.c_value > 0);
  Alcotest.(check int) "every request answered" (2 * per_client)
    (List.length answers);
  List.iter
    (fun r ->
      Alcotest.(check bool) "answer equals the one-shot reference" true
        (answer_ids r = reference))
    answers;
  let a = S.audit server in
  Alcotest.(check int) "submitted" (2 * per_client) a.A.Serve_check.sv_submitted;
  Alcotest.(check int) "executed = submitted" a.A.Serve_check.sv_submitted
    a.A.Serve_check.sv_executed;
  let rc = Option.get (S.recorder server) in
  Alcotest.(check int) "records = submitted" a.A.Serve_check.sv_submitted
    (Rox_telemetry.Recorder.records rc);
  Alcotest.(check (list string)) "recorder accounting balances" []
    (codes
       (A.Recorder_check.check ~submitted:a.A.Serve_check.sv_submitted rc));
  Alcotest.(check (list string)) "audit clean" [] (codes (S.self_check server))

(* ---------- budget aborts are structured replies ----------------------- *)

let test_budget_abort_replies () =
  let engine = library_engine () in
  let server =
    S.create (S.config ~workers:1 ~queue_capacity:8 engine)
  in
  (match S.submit server (P.query ~max_sampled_rows:1 library_query) with
   | P.Err (P.Sampled_rows, _) -> ()
   | r -> Alcotest.failf "want ERR sampled_rows, got %s" (P.render_response r));
  (match S.submit server (P.query ~max_rows:1 library_query) with
   | P.Err (P.Max_rows, _) -> ()
   | r -> Alcotest.failf "want ERR max_rows, got %s" (P.render_response r));
  (match S.submit server (P.query ~deadline_ms:0 library_query) with
   | P.Err (P.Deadline, _) -> ()
   | r -> Alcotest.failf "want ERR deadline, got %s" (P.render_response r));
  (match S.submit server (P.query "for $a in doc(\"nope.xml\"//a") with
   | P.Err (P.Bad_query, _) -> ()
   | r -> Alcotest.failf "want ERR bad_query, got %s" (P.render_response r));
  S.shutdown server;
  Alcotest.(check (list string)) "audit clean" [] (codes (S.self_check server))

(* ---------- the RX6xx checks over synthetic audit snapshots ------------ *)

let test_serve_check_codes () =
  let ok =
    {
      A.Serve_check.sv_requests = 5;
      sv_responses = 5;
      sv_submitted = 3;
      sv_executed = 2;
      sv_coalesced = 0;
      sv_rejected = 1;
    }
  in
  Alcotest.(check (list string)) "balanced is clean" []
    (codes (A.Serve_check.check ok));
  Alcotest.(check (list string)) "response without request" [ "RX601" ]
    (codes (A.Serve_check.check { ok with A.Serve_check.sv_responses = 6 }));
  Alcotest.(check (list string)) "dropped request" [ "RX603" ]
    (codes (A.Serve_check.check { ok with A.Serve_check.sv_submitted = 4 }));
  Alcotest.(check (list string)) "both" [ "RX601"; "RX603" ]
    (codes
       (A.Serve_check.check
          { ok with A.Serve_check.sv_responses = 9; sv_rejected = 7 }))

(* ---------- tenants ----------------------------------------------------- *)

let test_tenant_accounting () =
  let engine = library_engine () in
  let server =
    S.create (S.config ~workers:1 ~queue_capacity:8 engine)
  in
  ignore (S.submit server (P.query ~client_id:"alpha" library_query));
  ignore (S.submit server (P.query ~client_id:"alpha" other_query));
  ignore (S.submit server (P.query ~client_id:"beta" library_query));
  ignore (S.submit server (P.query library_query));
  S.shutdown server;
  Alcotest.(check (list (pair string int)))
    "per-tenant served counts"
    [ ("alpha", 2); ("beta", 1); ("local", 1) ]
    (S.tenants server)

(* A client-chosen client_id must not grow the server's memory: 50
   distinct tenants stay within the recorder's tenant_cap + "other". *)
let test_tenant_flood_bounded () =
  let engine = library_engine () in
  let server =
    S.create (S.config ~workers:1 ~queue_capacity:8 engine)
  in
  for i = 1 to 50 do
    ignore
      (S.submit server
         (P.query ~client_id:(Printf.sprintf "flood%02d" i) library_query))
  done;
  S.shutdown server;
  let cap = Rox_telemetry.Recorder.tenant_cap in
  let tenants = S.tenants server in
  Alcotest.(check bool) "tenants bounded to tenant_cap + 1" true
    (List.length tenants <= cap + 1);
  Alcotest.(check int) "every request counted" 50
    (List.fold_left (fun acc (_, n) -> acc + n) 0 tenants);
  let tenant_keys =
    List.filter
      (fun (k, _) -> String.starts_with ~prefix:"tenant." k)
      (S.stats_kvs server)
  in
  Alcotest.(check bool) "STATS tenant.* keys bounded" true
    (List.length tenant_keys <= cap + 1)

(* ---------- end-to-end: protocol session over a socketpair ------------- *)

let test_socketpair_session_two_domains () =
  let engine = library_engine () in
  let expected = Array.length (reference_ids engine library_query) in
  let server = S.create (S.config ~workers:2 ~queue_capacity:8 engine) in
  let srv_fd, cli_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* The client drives the whole scripted session from its own domain
     while this domain runs the connection handler. *)
  let client =
    Domain.spawn (fun () ->
        let d = P.decoder () in
        let send r = P.write_frame cli_fd (P.render_request r) in
        let recv () =
          match P.read_frame cli_fd d with
          | `Frame payload -> (
            match P.parse_response payload with
            | Ok r -> r
            | Error m -> failwith m)
          | `Eof -> failwith "eof"
          | `Corrupt m -> failwith m
        in
        send P.Ping;
        let pong = recv () in
        send (P.Query (P.query ~client_id:"e2e" library_query));
        let full = recv () in
        send (P.Query (P.query ~client_id:"e2e" ~limit:1 library_query));
        let limited = recv () in
        send P.Stats;
        let stats = recv () in
        send P.Quit;
        let bye = recv () in
        Unix.close cli_fd;
        (pong, full, limited, stats, bye))
  in
  S.handle_connection server srv_fd;
  let pong, full, limited, stats, bye = Domain.join client in
  S.shutdown server;
  Alcotest.(check bool) "pong" true (pong = P.Pong);
  (match full with
   | P.Answer a ->
     Alcotest.(check int) "full answer" expected (Array.length a.ids);
     Alcotest.(check int) "total" expected a.total
   | r -> Alcotest.failf "want answer, got %s" (P.render_response r));
  (match limited with
   | P.Answer a ->
     Alcotest.(check int) "limit truncates ids" 1 (Array.length a.ids);
     Alcotest.(check int) "limit keeps total" expected a.total
   | r -> Alcotest.failf "want answer, got %s" (P.render_response r));
  (match stats with
   | P.Stats_reply kvs ->
     Alcotest.(check string) "requests" "4" (List.assoc "requests" kvs);
     Alcotest.(check string) "executed" "2" (List.assoc "executed" kvs);
     Alcotest.(check string) "tenant" "2" (List.assoc "tenant.e2e" kvs)
   | r -> Alcotest.failf "want stats, got %s" (P.render_response r));
  Alcotest.(check bool) "bye" true (bye = P.Bye);
  Alcotest.(check (list string)) "audit clean" [] (codes (S.self_check server))

(* ---------- disconnecting clients and the connection cap --------------- *)

let test_sigpipe_ignored_on_closed_peer () =
  let engine = library_engine () in
  (* create installs the process-wide SIGPIPE ignore … *)
  let server = S.create (S.config ~workers:0 engine) in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close b;
  (* … so a write to a closed peer surfaces as EPIPE instead of killing
     the whole test process. *)
  (match P.write_frame a "PING" with
   | () -> Alcotest.fail "write to a closed peer must fail"
   | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ()
   | exception End_of_file -> ());
  Unix.close a;
  S.shutdown server

let test_client_disconnects_mid_session () =
  let engine = library_engine () in
  let server = S.create (S.config ~workers:2 engine) in
  let srv_fd, cli_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* The client fires a query and hangs up without reading the reply; the
     handler must treat the dead peer as a normal close, not raise. *)
  P.write_frame cli_fd (P.render_request (P.Query (P.query library_query)));
  Unix.close cli_fd;
  S.handle_connection server srv_fd;
  S.shutdown server;
  Alcotest.(check (list string)) "audit clean" [] (codes (S.self_check server))

let test_connection_cap () =
  let engine = library_engine () in
  let server =
    S.create (S.config ~workers:1 ~max_connections:1 engine)
  in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rox_serve_cap_%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 8;
  let acceptor = Thread.create (fun () -> S.serve server listen_fd) () in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  let recv fd d =
    match P.read_frame fd d with
    | `Frame payload -> (
      match P.parse_response payload with
      | Ok r -> `Resp r
      | Error m -> Alcotest.failf "bad response: %s" m)
    | `Eof -> `Eof
    | `Corrupt m -> Alcotest.failf "corrupt stream: %s" m
  in
  let c1 = connect () in
  let d1 = P.decoder () in
  P.write_frame c1 (P.render_request P.Ping);
  Alcotest.(check bool) "first connection serves" true
    (recv c1 d1 = `Resp P.Pong);
  (* The second connection is over the cap: one ERR busy frame, then EOF —
     and the first connection keeps working. *)
  let c2 = connect () in
  let d2 = P.decoder () in
  (match recv c2 d2 with
   | `Resp (P.Err (P.Busy, _)) -> ()
   | _ -> Alcotest.fail "over-cap connection must answer ERR busy");
  Alcotest.(check bool) "over-cap connection closes" true (recv c2 d2 = `Eof);
  Unix.close c2;
  P.write_frame c1 (P.render_request P.Stats);
  (match recv c1 d1 with
   | `Resp (P.Stats_reply kvs) ->
     Alcotest.(check string) "connections" "1" (List.assoc "connections" kvs);
     Alcotest.(check string) "conn_rejected" "1"
       (List.assoc "conn_rejected" kvs)
   | _ -> Alcotest.fail "stats over the surviving connection");
  P.write_frame c1 (P.render_request P.Quit);
  Alcotest.(check bool) "bye" true (recv c1 d1 = `Resp P.Bye);
  Unix.close c1;
  (* Shutting the listener down makes accept fail on the fd itself, which
     is the one condition that ends the loop. *)
  Unix.shutdown listen_fd Unix.SHUTDOWN_ALL;
  Thread.join acceptor;
  Unix.close listen_fd;
  S.shutdown server;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Alcotest.(check (list string)) "audit clean" [] (codes (S.self_check server))

(* ---------- server metrics --------------------------------------------- *)

let test_server_metrics () =
  let engine = library_engine () in
  let server = S.create (S.config ~workers:1 ~queue_capacity:8 engine) in
  ignore (S.submit server (P.query library_query));
  ignore (S.submit server (P.query library_query));
  S.shutdown server;
  let m = S.metrics server in
  let module Tm = Rox_telemetry.Metrics in
  Alcotest.(check int) "serve_ns histogram count" 2 m.Tm.serve_ns.Tm.h_count;
  Alcotest.(check int) "queue_wait histogram count" 2 m.Tm.queue_wait_ns.Tm.h_count;
  Alcotest.(check bool) "absorbed session registries served 2 queries" true
    (m.Tm.queries_served.Tm.c_value = 2)

(* ---------- flight recorder over the serve API ------------------------- *)

let test_flight_recorder_scrape () =
  let engine = library_engine () in
  let server = S.create (S.config ~workers:1 ~queue_capacity:8 engine) in
  ignore (S.submit server (P.query ~client_id:"alpha" library_query));
  ignore (S.submit server (P.query ~client_id:"beta" other_query));
  (* The third request aborts on its sampling budget: an errored record,
     which the tail sampler always retains. *)
  (match
     S.submit server
       (P.query ~client_id:"gamma" ~max_sampled_rows:1 library_query)
   with
   | P.Err (P.Sampled_rows, _) -> ()
   | r -> Alcotest.failf "want ERR sampled_rows, got %s" (P.render_response r));
  (* STATS: the new uptime and recorder keys. *)
  let kvs = S.stats_kvs server in
  Alcotest.(check string) "records" "3" (List.assoc "records" kvs);
  Alcotest.(check string) "records_dropped" "0"
    (List.assoc "records_dropped" kvs);
  Alcotest.(check bool) "uptime_ms present" true
    (List.mem_assoc "uptime_ms" kvs);
  Alcotest.(check bool) "started_at present" true
    (List.mem_assoc "started_at" kvs);
  Alcotest.(check bool) "errored request is retained" true
    (int_of_string (List.assoc "traces_retained" kvs) >= 1);
  (* METRICS: the exposition page carries the recorder and tenant series
     after the server's ledger. *)
  let page = S.metrics_text server in
  Alcotest.(check bool) "recorder records series" true
    (contains page "rox_recorder_records_total 3");
  Alcotest.(check bool) "tenant series" true
    (contains page "rox_tenant_requests_total{tenant=\"alpha\"} 1");
  Alcotest.(check bool) "tenant errors series" true
    (contains page "rox_tenant_errors_total{tenant=\"gamma\"} 1");
  (* RECENT: JSONL, newest first, the errored record on top. *)
  let lines = S.recent_lines server 10 in
  Alcotest.(check int) "one line per request" 3 (List.length lines);
  let parsed =
    List.map
      (fun line ->
        match Rox_util.Minijson.parse line with
        | Ok j -> j
        | Error m -> Alcotest.failf "RECENT line must parse: %s" m)
      lines
  in
  let module J = Rox_util.Minijson in
  (match parsed with
   | newest :: _ ->
     Alcotest.(check bool) "newest first" true
       (Option.bind (J.member "trace_id" newest) J.to_num_opt = Some 3.0);
     Alcotest.(check bool) "errored status surfaces" true
       (Option.bind (J.member "status" newest) J.to_string_opt
       = Some "sampled_rows");
     Alcotest.(check bool) "retention reason surfaces" true
       (Option.bind (J.member "retained" newest) J.to_string_opt
       = Some "errored")
   | [] -> Alcotest.fail "unreachable");
  Alcotest.(check int) "RECENT honours n" 1 (List.length (S.recent_lines server 1));
  (* TRACE: a retained id exports a valid Chrome trace; an unknown id is
     ERR not_found. *)
  let rc = Option.get (S.recorder server) in
  let retained_id =
    match Rox_telemetry.Recorder.traces rc with
    | (id, _, _, _) :: _ -> id
    | [] -> Alcotest.fail "at least one trace must be retained"
  in
  (match S.trace_response server retained_id with
   | P.Trace_reply (id, body) ->
     Alcotest.(check int) "id echoes" retained_id id;
     (match J.parse body with
      | Ok j -> (
        match Rox_telemetry.Export.validate_chrome j with
        | Ok n -> Alcotest.(check bool) "has complete events" true (n >= 1)
        | Error m -> Alcotest.failf "invalid chrome trace: %s" m)
      | Error m -> Alcotest.failf "trace body must parse: %s" m)
   | r -> Alcotest.failf "want TRACE reply, got %s" (P.render_response r));
  (match S.trace_response server 999_999 with
   | P.Err (P.Unknown_id, _) -> ()
   | r ->
     Alcotest.failf "unknown id must ERR not_found, got %s"
       (P.render_response r));
  S.shutdown server;
  Alcotest.(check (list string)) "audit clean" [] (codes (S.self_check server));
  Alcotest.(check (list string)) "recorder accounting balances" []
    (codes (A.Recorder_check.check ~submitted:3 rc))

(* A retained served trace carries the optimizer's decisions beside wall
   clock: its edge_executed events replay the request's plan in order.
   The default recorder head-samples trace id 128, so 128 requests retain
   at least one successful trace without depending on latency. *)
let test_retained_trace_has_plan_events () =
  let engine = library_engine () in
  let server = S.create (S.config ~workers:1 ~queue_capacity:8 engine) in
  for _ = 1 to 128 do
    match S.submit server (P.query library_query) with
    | P.Answer _ -> ()
    | r -> Alcotest.failf "want an answer, got %s" (P.render_response r)
  done;
  let plan =
    let compiled = Rox_xquery.Compile.compile_string engine library_query in
    (Rox_core.Optimizer.run (Rox_core.Session.create ()) compiled)
      .Rox_core.Optimizer.edge_order
  in
  Alcotest.(check bool) "the plan executes edges" true (plan <> []);
  let rc = Option.get (S.recorder server) in
  let ok_ids =
    List.filter_map
      (fun (id, r, _, _) ->
        if r.Rox_telemetry.Recorder.status = "ok" then Some id else None)
      (Rox_telemetry.Recorder.traces rc)
  in
  Alcotest.(check bool) "a successful request is retained" true (ok_ids <> []);
  List.iter
    (fun id ->
      match Rox_telemetry.Recorder.find_trace rc id with
      | None -> Alcotest.failf "trace %d must be addressable" id
      | Some (record, _, snapshot) ->
        let timeline = Rox_telemetry.Sink.snapshot_timeline snapshot in
        Alcotest.(check string) "record names the reference plan"
          (Rox_telemetry.Recorder.plan_digest plan)
          record.Rox_telemetry.Recorder.plan_digest;
        let executed =
          List.filter_map
            (fun (sp : Rox_telemetry.Sink.span) ->
              if sp.Rox_telemetry.Sink.name = "edge_executed" then
                Option.bind
                  (List.assoc_opt "edge" sp.Rox_telemetry.Sink.attrs)
                  int_of_string_opt
              else None)
            timeline
        in
        Alcotest.(check (list int)) "edge_executed events follow the plan" plan
          executed;
        (match S.trace_response server id with
         | P.Trace_reply (_, body) ->
           Alcotest.(check bool) "TRACE export carries the events" true
             (contains body "\"name\": \"edge_executed\"")
         | r -> Alcotest.failf "want TRACE reply, got %s" (P.render_response r)))
    ok_ids;
  S.shutdown server

(* The scrape verbs over the wire, plus TRACE's error path end-to-end. *)
let test_socketpair_scrape_session () =
  let engine = library_engine () in
  let server = S.create (S.config ~workers:2 ~queue_capacity:8 engine) in
  let srv_fd, cli_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let client =
    Domain.spawn (fun () ->
        let d = P.decoder () in
        let send r = P.write_frame cli_fd (P.render_request r) in
        let recv () =
          match P.read_frame cli_fd d with
          | `Frame payload -> (
            match P.parse_response payload with
            | Ok r -> r
            | Error m -> failwith m)
          | `Eof -> failwith "eof"
          | `Corrupt m -> failwith m
        in
        send (P.Query (P.query ~client_id:"scrape" library_query));
        let answer = recv () in
        send P.Metrics;
        let metrics = recv () in
        send (P.Recent 5);
        let recent = recv () in
        send (P.Trace_get 424_242);
        let missing = recv () in
        send P.Quit;
        let bye = recv () in
        Unix.close cli_fd;
        (answer, metrics, recent, missing, bye))
  in
  S.handle_connection server srv_fd;
  let answer, metrics, recent, missing, bye = Domain.join client in
  S.shutdown server;
  (match answer with
   | P.Answer _ -> ()
   | r -> Alcotest.failf "want answer, got %s" (P.render_response r));
  (match metrics with
   | P.Metrics_reply page ->
     Alcotest.(check bool) "recorder series over the wire" true
       (contains page "rox_recorder_records_total 1")
   | r -> Alcotest.failf "want METRICS reply, got %s" (P.render_response r));
  (match recent with
   | P.Recent_reply [ line ] -> (
     match Rox_util.Minijson.parse line with
     | Ok j ->
       let module J = Rox_util.Minijson in
       Alcotest.(check bool) "tenant over the wire" true
         (Option.bind (J.member "tenant" j) J.to_string_opt = Some "scrape")
     | Error m -> Alcotest.failf "RECENT line must parse: %s" m)
   | r -> Alcotest.failf "want one RECENT line, got %s" (P.render_response r));
  (match missing with
   | P.Err (P.Unknown_id, _) -> ()
   | r -> Alcotest.failf "want ERR not_found, got %s" (P.render_response r));
  Alcotest.(check bool) "bye" true (bye = P.Bye);
  Alcotest.(check (list string)) "audit clean" [] (codes (S.self_check server))

(* ---------- the one ledger --------------------------------------------- *)

(* STATS and METRICS read the same ledger: after a session with a ping,
   a rejected query and a quit (and one request executed off the
   socket), the audit keys equal the exposition's counters. *)
let test_stats_match_metrics_page () =
  let engine = library_engine () in
  let server = S.create (S.config ~workers:0 ~queue_capacity:1 engine) in
  (match S.submit_async server (P.query library_query) with
   | `Ticket _ -> ()
   | `Rejected -> Alcotest.fail "an empty queue admits");
  let srv_fd, cli_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let client =
    Domain.spawn (fun () ->
        let d = P.decoder () in
        let send r = P.write_frame cli_fd (P.render_request r) in
        let recv () =
          match P.read_frame cli_fd d with
          | `Frame payload -> (
            match P.parse_response payload with
            | Ok r -> r
            | Error m -> failwith m)
          | `Eof -> failwith "eof"
          | `Corrupt m -> failwith m
        in
        send P.Ping;
        ignore (recv () : P.response);
        send (P.Query (P.query other_query));
        let busy = recv () in
        send P.Quit;
        ignore (recv () : P.response);
        Unix.close cli_fd;
        busy)
  in
  S.handle_connection server srv_fd;
  (match Domain.join client with
   | P.Err (P.Busy, _) -> ()
   | r -> Alcotest.failf "want ERR busy, got %s" (P.render_response r));
  Alcotest.(check bool) "the queued request executes" true (S.drain_once server);
  S.shutdown server;
  let kvs = S.stats_kvs server in
  let page = S.metrics_text server in
  let sample name =
    let prefix = name ^ " " in
    let n = String.length prefix in
    match
      List.find_opt
        (fun l -> String.length l > n && String.sub l 0 n = prefix)
        (String.split_on_char '\n' page)
    with
    | Some l -> String.sub l n (String.length l - n)
    | None -> Alcotest.failf "METRICS lacks %s" name
  in
  List.iter
    (fun (key, series, want) ->
      Alcotest.(check string) ("STATS " ^ key) want (List.assoc key kvs);
      Alcotest.(check string) (key ^ " = " ^ series) (List.assoc key kvs)
        (sample series))
    [
      ("requests", "rox_serve_requests_total", "3");
      ("responses", "rox_serve_responses_total", "3");
      ("rejected", "rox_serve_admission_rejects_total", "1");
      ("executed", "rox_serve_request_duration_ns_count", "1");
    ];
  Alcotest.(check (list string)) "audit clean" [] (codes (S.self_check server))

let test_metrics_snapshot_is_private () =
  let engine = library_engine () in
  let server = S.create (S.config ~workers:1 ~queue_capacity:8 engine) in
  ignore (S.submit server (P.query library_query) : P.response);
  S.shutdown server;
  let module Tm = Rox_telemetry.Metrics in
  let read (m : Tm.t) =
    ( m.Tm.queries_served.Tm.c_value,
      m.Tm.admission_rejects.Tm.c_value,
      m.Tm.serve_ns.Tm.h_count,
      m.Tm.serve_ns.Tm.h_sum )
  in
  let first = S.metrics server in
  let before = read first in
  Tm.incr ~by:100 first.Tm.queries_served;
  Tm.incr first.Tm.admission_rejects;
  Tm.observe first.Tm.serve_ns 1_000_000;
  Alcotest.(check bool) "the copy took the writes" true (read first <> before);
  Alcotest.(check bool) "the next snapshot does not see them" true
    (read (S.metrics server) = before);
  Alcotest.(check (list string)) "audit unchanged" [] (codes (S.self_check server))

(* A slow log that cannot take a write is closed with one stderr line;
   the worker keeps serving and every request is answered. *)
let test_slow_log_write_failure () =
  if Sys.file_exists "/dev/full" then begin
    let engine = library_engine () in
    let server =
      S.create
        (S.config ~workers:1 ~queue_capacity:8 ~slow_ms:0 ~slow_log:"/dev/full"
           engine)
    in
    for _ = 1 to 3 do
      match S.submit server (P.query library_query) with
      | P.Answer _ -> ()
      | r -> Alcotest.failf "want an answer, got %s" (P.render_response r)
    done;
    S.shutdown server;
    let rc = Option.get (S.recorder server) in
    Alcotest.(check int) "every request recorded" 3
      (Rox_telemetry.Recorder.records rc);
    Alcotest.(check int) "no line counted as written" 0
      (Rox_telemetry.Recorder.log_lines rc);
    Alcotest.(check (list string)) "audit clean" [] (codes (S.self_check server))
  end

(* ---------- multi-domain replay over one shared cache ----------------- *)

let showdown_query =
  {|let $d := doc("xmark.xml")
for $o in $d//open_auction[.//current/text() > 145],
    $p in $d//person[.//province]
where $o//bidder//personref/@person = $p/@id
return $o|}

(* Two passes over the XMark pair and the showdown query from four
   domains at once: as cache-off sessions, as sessions on one 8 MiB
   store, then as client requests to a 2-worker server over the same
   store. Every answer equals the single-domain one-shot answer, the
   server's ledger counts one served query per request (each request's
   registry merged into it once), and its books balance
   (RX601/RX603/RX701). *)
let test_multi_domain_replay () =
  let engine = Helpers.xmark_engine () in
  let queries =
    [ Helpers.xmark_q1 ~op:"<" ~theta:145; Helpers.xmark_q1 ~op:">" ~theta:145;
      showdown_query ]
  in
  let expected = List.map (reference_ids engine) queries in
  Alcotest.(check bool) "answers are not empty" true
    (List.for_all (fun ids -> Array.length ids > 0) expected);
  let cache = Rox_cache.Store.of_megabytes engine 8 in
  let domains = 4 and passes = 2 in
  let on_four_domains answer =
    List.init domains (fun i ->
        Domain.spawn (fun () ->
            List.init passes (fun _ -> List.map (answer i) queries)))
    |> List.iter (fun d ->
           List.iter
             (Alcotest.(check (list (array int))) "one-shot answers" expected)
             (Domain.join d))
  in
  let compiled =
    List.map (fun q -> (q, Rox_xquery.Compile.compile_string engine q)) queries
  in
  let session_answer ?cache q =
    let session =
      Rox_core.Session.create ?cache
        ~telemetry:(Rox_telemetry.Sink.create ~enabled:true ())
        ()
    in
    Rox_core.Session.confine session (fun () ->
        fst (Rox_core.Optimizer.answer session (List.assoc q compiled)))
  in
  on_four_domains (fun _ q -> session_answer q);
  on_four_domains (fun _ q -> session_answer ~cache q);
  let server =
    S.create (S.config ~cache ~workers:2 ~queue_capacity:64 engine)
  in
  on_four_domains (fun i q ->
      answer_ids
        (S.submit server (P.query ~client_id:(Printf.sprintf "domain%d" i) q)));
  S.shutdown server;
  Alcotest.(check int) "ledger: one served query per request"
    (domains * passes * List.length queries)
    (S.metrics server).Rox_telemetry.Metrics.queries_served.Rox_telemetry.Metrics.c_value;
  Alcotest.(check (list string)) "audit clean" [] (codes (S.self_check server))

let suite =
  [
    Alcotest.test_case "protocol: request round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "protocol: response round-trip" `Quick test_response_roundtrip;
    Alcotest.test_case "protocol: malformed requests rejected" `Quick test_request_rejects;
    Alcotest.test_case "decoder: byte-by-byte" `Quick test_decoder_byte_by_byte;
    Alcotest.test_case "decoder: truncated frame awaits" `Quick test_decoder_truncated_awaits;
    Alcotest.test_case "decoder: junk and oversized corrupt" `Quick test_decoder_corrupt;
    Alcotest.test_case "admission: full queue rejects" `Quick test_admission_rejects_when_full;
    Alcotest.test_case "identical requests: one execution each" `Quick test_identical_requests_execute_each;
    Alcotest.test_case "e2e: identical requests, warm cache" `Quick test_concurrent_identical_warm_cache;
    Alcotest.test_case "budget aborts answer as ERR" `Quick test_budget_abort_replies;
    Alcotest.test_case "serve_check: RX601/603" `Quick test_serve_check_codes;
    Alcotest.test_case "tenant accounting" `Quick test_tenant_accounting;
    Alcotest.test_case "e2e: socketpair session, 2 domains" `Quick test_socketpair_session_two_domains;
    Alcotest.test_case "sigpipe ignored: closed peer is EPIPE" `Quick test_sigpipe_ignored_on_closed_peer;
    Alcotest.test_case "client disconnect is a normal close" `Quick test_client_disconnects_mid_session;
    Alcotest.test_case "connection cap bounces with ERR busy" `Quick test_connection_cap;
    Alcotest.test_case "server metrics snapshot" `Quick test_server_metrics;
    Alcotest.test_case "protocol: scrape verbs round-trip" `Quick test_scrape_roundtrip;
    Alcotest.test_case "flight recorder: STATS/METRICS/RECENT/TRACE" `Quick test_flight_recorder_scrape;
    Alcotest.test_case "e2e: scrape verbs over a socketpair" `Quick test_socketpair_scrape_session;
    Alcotest.test_case "retained trace carries the plan's events" `Quick
      test_retained_trace_has_plan_events;
    Alcotest.test_case "tenant flood bounded" `Quick test_tenant_flood_bounded;
    Alcotest.test_case "slow log: retained only where a trace was kept" `Quick
      test_slow_log_retained_matches_traces;
    Alcotest.test_case "one ledger: STATS = METRICS page" `Quick
      test_stats_match_metrics_page;
    Alcotest.test_case "metrics snapshot is private" `Quick
      test_metrics_snapshot_is_private;
    Alcotest.test_case "slow log write failure keeps serving" `Quick
      test_slow_log_write_failure;
    Alcotest.test_case "4 domains, one store, one server" `Slow
      test_multi_domain_replay;
  ]
