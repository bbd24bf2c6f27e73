module Session = Rox_core.Session
module Optimizer = Rox_core.Optimizer
module Compile = Rox_xquery.Compile
module Cost = Rox_algebra.Cost
module Engine = Rox_storage.Engine
module Guarded = Rox_util.Guarded
module Sink = Rox_telemetry.Sink
module Tm = Rox_telemetry.Metrics
module Clock = Rox_telemetry.Clock
module Export = Rox_telemetry.Export
module Recorder = Rox_telemetry.Recorder
module Serve_check = Rox_analysis.Serve_check
module Diagnostic = Rox_analysis.Diagnostic

type config = {
  engine : Engine.t;
  cache : Rox_cache.Store.t option;
  workers : int;
  queue_capacity : int;
  max_connections : int;
  session : Session.config;
  slow_ms : int option;
  slow_log : string option;
}

let config ?cache ?(workers = 2) ?(queue_capacity = 64)
    ?(max_connections = 256) ?session ?slow_ms ?slow_log engine =
  let session =
    match session with Some s -> s | None -> Session.default_config ()
  in
  if workers < 0 then invalid_arg "Server.config: workers < 0";
  if queue_capacity < 1 then invalid_arg "Server.config: queue_capacity < 1";
  if max_connections < 1 then invalid_arg "Server.config: max_connections < 1";
  {
    engine;
    cache;
    workers;
    queue_capacity;
    max_connections;
    session;
    slow_ms;
    slow_log;
  }

(* A client that disconnects before reading its reply turns our write into
   a SIGPIPE, whose default disposition kills the whole process — every
   tenant, every worker. Ignore it once, process-wide, and let the write's
   EPIPE surface as an ordinary connection close. *)
let ignore_sigpipe =
  lazy (if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

(* One admitted request: it holds one queue slot until a worker takes
   it, and its submitter holds it as the ticket to await. *)
type pending = {
  query : Protocol.query;
  trace_id : int;  (* flight-recorder id *)
  submitted_ns : int64;
  done_c : Condition.t;
  mutable outcome : Protocol.response option;
}

type ticket = pending

(* The server's cross-domain state: reachable only inside the one
   [Guarded.with_lock t.shared] critical section. A pending entry's
   [outcome] is written and read under the same lock. *)
type shared = {
  queue : pending Queue.t;
  (* The one ledger: frames, replies and rejections are counted here,
     each executed request observes its queue wait and serve latency and
     merges its session registry here. The audit, STATS and METRICS read
     it. *)
  metrics : Tm.t;
  mutable submitted : int;  (* QUERY requests offered to admission *)
  (* connection accounting — bounds the thread-per-connection pool *)
  mutable conns : int;
  mutable conn_rejected : int;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

type t = {
  cfg : config;
  shared : shared Guarded.t;
  work : Condition.t;  (* signalled on push and on shutdown *)
  (* The flight recorder: always-on request records, tail-sampled trace
     retention, tenant series, slow log. Behind its own lock — never
     touched while the server's is held. *)
  recorder : Recorder.t;
  started_ns : int64;   (* monotonic, for uptime_ms *)
  started_at : float;   (* wall clock (epoch seconds), for STATS *)
}

let set_depth_locked s =
  Tm.set s.metrics.Tm.queue_depth (float_of_int (Queue.length s.queue))

(* ---- execution ---------------------------------------------------------- *)

(* One served execution: a fresh single-domain session over the shared
   engine/cache, wire-level overrides winning over the base config. Every
   failure mode maps to a structured ERR — a budget abort is an answer.
   Beside the response it hands the flight recorder the run: the chosen
   join order, the request's sink and the deterministic budget spend.
   Tail sampling decides after the fact whether the tree was worth
   keeping, so every request runs with a live sink. *)
let run_query t (q : Protocol.query) ~deadline_ms =
  let sink = Sink.create ~enabled:true () in
  let base = t.cfg.session in
  let budgets =
    {
      Session.max_rows =
        Option.value q.Protocol.max_rows
          ~default:base.Session.budgets.Session.max_rows;
      deadline_ms;
      max_sampled_rows =
        (match q.Protocol.max_sampled_rows with
        | Some _ as s -> s
        | None -> base.Session.budgets.Session.max_sampled_rows);
    }
  in
  let config =
    {
      base with
      Session.seed = q.Protocol.seed;
      tau = q.Protocol.tau;
      client_id = q.Protocol.client_id;
      budgets;
    }
  in
  let session = Session.create ~config ?cache:t.cfg.cache ~telemetry:sink () in
  let resp, plan =
    try
      let compiled =
        Compile.compile_string ~telemetry:sink t.cfg.engine q.Protocol.text
      in
      let ids, result = Optimizer.answer session compiled in
      let total = Array.length ids in
      let ids =
        match q.Protocol.limit with
        | Some l when l < total -> Array.sub ids 0 l
        | _ -> ids
      in
      ( Protocol.Answer
          {
            ids;
            total;
            sampling = Cost.read result.Optimizer.counter Cost.Sampling;
            execution = Cost.read result.Optimizer.counter Cost.Execution;
          },
        result.Optimizer.edge_order )
    with
    | Rox_xquery.Parser.Parse_error msg ->
      (Protocol.Err (Protocol.Bad_query, "parse error: " ^ msg), [])
    | Compile.Unsupported msg ->
      (Protocol.Err (Protocol.Bad_query, "unsupported: " ^ msg), [])
    | Compile.Rejected d ->
      (Protocol.Err (Protocol.Bad_query, Diagnostic.to_string d), [])
    | Cost.Budget_exceeded { reason; _ } as e ->
      let kind =
        match reason with
        | Cost.Deadline -> Protocol.Deadline
        | Cost.Sampled_rows -> Protocol.Sampled_rows
      in
      ( Protocol.Err
          (kind, Option.value (Cost.budget_message e) ~default:"budget exceeded"),
        [] )
    | Rox_joingraph.Runtime.Blowup { edge; rows; limit } ->
      ( Protocol.Err
          ( Protocol.Max_rows,
            Printf.sprintf "edge %d materialized %d rows over max_rows %d" edge
              rows limit ),
        [] )
    | exn -> (Protocol.Err (Protocol.Internal, Printexc.to_string exn), [])
  in
  ( resp,
    {
      Recorder.sink;
      plan;
      (* The session counter keeps counting through an abort, so the
         record sees the budget spend even when the answer is an ERR. *)
      sampling_units = Cost.read (Session.counter session) Cost.Sampling;
      execution_units = Cost.read (Session.counter session) Cost.Execution;
    } )

(* ---- flight records ------------------------------------------------------ *)

(* One flight record per submitted request — executed entries carry their
   run, rejected ones only their admission outcome, so the recorder's
   record count reconciles with the RX601/RX603 audit (RX701). Never
   called with the server's lock held: the recorder takes its own and
   may write the slow log. *)
let record_request t ~trace_id ~(q : Protocol.query) ~outcome ~resp ~latency_ns
    ~queue_ns run =
  let status =
    match resp with
    | Protocol.Err (kind, _) -> Protocol.err_kind_label kind
    | _ -> "ok"
  in
  ignore
    (Recorder.record_request t.recorder ~trace_id ~query:q.Protocol.text
       ~tenant:q.Protocol.client_id ~outcome ~status ~latency_ns ~queue_ns run
      : Recorder.record)

(* The request's one visit to the ledger: its serve_ns observation is the
   audit's executed count, and its session registry (absent when the
   deadline ran out in the queue) is merged in the same critical
   section. *)
let complete t entry ~wait_ns resp run =
  Guarded.with_lock t.shared (fun s ->
      entry.outcome <- Some resp;
      Tm.observe s.metrics.Tm.queue_wait_ns wait_ns;
      Tm.observe s.metrics.Tm.serve_ns (Clock.elapsed_ns entry.submitted_ns);
      Option.iter
        (fun (r : Recorder.run) ->
          Tm.add_into ~into:s.metrics (Sink.metrics r.Recorder.sink))
        run;
      Condition.broadcast entry.done_c)

let process t entry ~wait_ns =
  let wait_ms = int_of_float (Clock.ms_of_ns wait_ns) in
  let q = entry.query in
  let resp, run =
    match q.Protocol.deadline_ms with
    | Some d when wait_ms >= d ->
      (* The budget ran out while queued: answer without executing. *)
      ( Protocol.Err
          ( Protocol.Deadline,
            Printf.sprintf
              "deadline budget exceeded in queue: waited %d ms, budget %d ms"
              wait_ms d ),
        None )
    | Some d ->
      let resp, run = run_query t q ~deadline_ms:(Some (d - wait_ms)) in
      (resp, Some run)
    | None ->
      let resp, run =
        run_query t q
          ~deadline_ms:t.cfg.session.Session.budgets.Session.deadline_ms
      in
      (resp, Some run)
  in
  (* Record before waking the submitter: by the time a client reads its
     reply, the flight record is visible (RECENT/STATS right after an
     answer are deterministic). record_request takes only the recorder's
     lock, never the server's. *)
  record_request t ~trace_id:entry.trace_id ~q ~outcome:Recorder.Executed ~resp
    ~latency_ns:(Clock.elapsed_ns entry.submitted_ns) ~queue_ns:wait_ns run;
  complete t entry ~wait_ns resp run

(* The next queued entry, waiting for one unless the server stops. *)
let take t =
  Guarded.with_lock t.shared (fun s ->
      let rec go () =
        if not (Queue.is_empty s.queue) then begin
          let e = Queue.pop s.queue in
          set_depth_locked s;
          Some e
        end
        else if s.stopping then None
        else begin
          Guarded.wait t.shared t.work;
          go ()
        end
      in
      go ())

(* The worker's exception barrier: [run_query] maps every failure of the
   run to an ERR, but the flight record (a trace snapshot, the slow log)
   and the ledger update come after it. An exception there must neither
   kill the worker domain nor leave the submitter blocked in [await]: the
   entry is answered ERR internal unless it already has its outcome, so
   it is completed exactly once and the RX601/RX603 balances hold. Both
   sources run after the recorder stored the request's record, so RX701
   holds too. *)
let process_guarded t entry =
  let wait_ns = Clock.elapsed_ns entry.submitted_ns in
  try process t entry ~wait_ns
  with exn ->
    let answered =
      Guarded.with_lock t.shared (fun _ -> Option.is_some entry.outcome)
    in
    if not answered then
      complete t entry ~wait_ns
        (Protocol.Err (Protocol.Internal, Printexc.to_string exn))
        None

let rec worker_loop t =
  match take t with
  | None -> ()
  | Some entry ->
    process_guarded t entry;
    worker_loop t

(* ---- lifecycle ---------------------------------------------------------- *)

let create cfg =
  Lazy.force ignore_sigpipe;
  let t =
    {
      cfg;
      shared =
        Guarded.create
          {
            queue = Queue.create ();
            metrics = Tm.create ();
            submitted = 0;
            conns = 0;
            conn_rejected = 0;
            stopping = false;
            workers = [];
          };
      work = Condition.create ();
      recorder = Recorder.create ?slow_ms:cfg.slow_ms ?slow_log:cfg.slow_log ();
      started_ns = Clock.now_ns ();
      started_at = Unix.gettimeofday ();
    }
  in
  let workers =
    List.init cfg.workers (fun _ -> Domain.spawn (fun () -> worker_loop t))
  in
  Guarded.with_lock t.shared (fun s -> s.workers <- workers);
  t

let shutdown t =
  let workers =
    Guarded.with_lock t.shared (fun s ->
        if s.stopping then []
        else begin
          s.stopping <- true;
          Condition.broadcast t.work;
          let ws = s.workers in
          s.workers <- [];
          ws
        end)
  in
  List.iter Domain.join workers;
  (* Workers drain the queue before exiting; anything still here means
     workers = 0. Fail it as rejected so the RX603 balance holds and no
     awaiting client hangs. *)
  let drained =
    Guarded.with_lock t.shared (fun s ->
        let acc = ref [] in
        while not (Queue.is_empty s.queue) do
          let e = Queue.pop s.queue in
          Tm.incr s.metrics.Tm.admission_rejects;
          e.outcome <- Some (Protocol.Err (Protocol.Busy, "server shutting down"));
          Condition.broadcast e.done_c;
          acc := e :: !acc
        done;
        set_depth_locked s;
        !acc)
  in
  (* Flight-record the drained entries outside the server lock, then
     flush the slow log: after shutdown every submitted request has its
     record, so the RX701 reconciliation holds even for a server killed
     with work still queued. *)
  List.iter
    (fun e ->
      record_request t ~trace_id:e.trace_id ~q:e.query
        ~outcome:Recorder.Rejected
        ~resp:(Protocol.Err (Protocol.Busy, "server shutting down"))
        ~latency_ns:(Clock.elapsed_ns e.submitted_ns)
        ~queue_ns:(Clock.elapsed_ns e.submitted_ns) None)
    drained;
  Recorder.close t.recorder

(* ---- admission ---------------------------------------------------------- *)

let submit_async t (q : Protocol.query) =
  let trace_id = Recorder.next_trace_id t.recorder in
  let t0 = Clock.now_ns () in
  let verdict =
    Guarded.with_lock t.shared (fun s ->
        s.submitted <- s.submitted + 1;
        if s.stopping || Queue.length s.queue >= t.cfg.queue_capacity then begin
          Tm.incr s.metrics.Tm.admission_rejects;
          `Rejected
        end
        else begin
          let entry =
            {
              query = q;
              trace_id;
              submitted_ns = t0;
              done_c = Condition.create ();
              outcome = None;
            }
          in
          Queue.push entry s.queue;
          set_depth_locked s;
          Condition.signal t.work;
          `Ticket entry
        end)
  in
  (* Rejected requests are flight-recorded too (outside the server
     lock): the recorder's record count must reconcile with submitted,
     not with executed. *)
  (match verdict with
   | `Rejected ->
     record_request t ~trace_id ~q ~outcome:Recorder.Rejected
       ~resp:(Protocol.Err (Protocol.Busy, "admission queue full"))
       ~latency_ns:(Clock.elapsed_ns t0) ~queue_ns:0 None
   | `Ticket _ -> ());
  verdict

let await t (tk : ticket) =
  Guarded.with_lock t.shared (fun _ ->
      let rec wait () =
        match tk.outcome with
        | Some r -> r
        | None ->
          Guarded.wait t.shared tk.done_c;
          wait ()
      in
      wait ())

let submit t q =
  match submit_async t q with
  | `Rejected -> Protocol.Err (Protocol.Busy, "admission queue full")
  | `Ticket tk -> await t tk

let drain_once t =
  match Guarded.with_lock t.shared (fun s ->
            if Queue.is_empty s.queue then None
            else begin
              let e = Queue.pop s.queue in
              set_depth_locked s;
              Some e
            end)
  with
  | None -> false
  | Some entry ->
    process_guarded t entry;
    true

(* ---- introspection ------------------------------------------------------ *)

let queue_depth t = Guarded.with_lock t.shared (fun s -> Queue.length s.queue)

let audit_locked s =
  let m = s.metrics in
  {
    Serve_check.sv_requests = m.Tm.requests_received.Tm.c_value;
    sv_responses = m.Tm.responses_sent.Tm.c_value;
    sv_submitted = s.submitted;
    sv_executed = m.Tm.serve_ns.Tm.h_count;
    sv_coalesced = 0;
    sv_rejected = m.Tm.admission_rejects.Tm.c_value;
  }

let audit t = Guarded.with_lock t.shared audit_locked

let self_check t = Serve_check.check (audit t)

let tenants t =
  List.map
    (fun (s : Recorder.tenant_stat) -> (s.tenant, s.requests))
    (Recorder.tenant_stats t.recorder)

let stats_kvs t =
  let counts =
    Guarded.with_lock t.shared (fun s ->
        let a = audit_locked s in
        [
          ("uptime_ms", string_of_int (Clock.elapsed_ns t.started_ns / 1_000_000));
          ("started_at", Printf.sprintf "%.3f" t.started_at);
          ("requests", string_of_int a.Serve_check.sv_requests);
          ("responses", string_of_int a.sv_responses);
          ("submitted", string_of_int a.sv_submitted);
          ("executed", string_of_int a.sv_executed);
          ("rejected", string_of_int a.sv_rejected);
          ("queue_depth", string_of_int (Queue.length s.queue));
          ("connections", string_of_int s.conns);
          ("conn_rejected", string_of_int s.conn_rejected);
          ("workers", string_of_int t.cfg.workers);
        ])
  in
  (* Cache surface: residency plus the eviction and contention counters
     of each member cache (taken under the cache's own lock, never
     inside the server lock). *)
  let cache_kvs =
    match t.cfg.cache with
    | None -> []
    | Some store ->
      let st = Rox_cache.Store.stats store in
      let member name (s : Rox_cache.Lru.stats) =
        [
          (Printf.sprintf "cache.%s.bytes" name, string_of_int s.bytes);
          (Printf.sprintf "cache.%s.entries" name, string_of_int s.entries);
          (Printf.sprintf "cache.%s.evictions" name, string_of_int s.evictions);
          (Printf.sprintf "cache.%s.lock_waits" name, string_of_int s.lock_waits);
        ]
      in
      member "relations" st.relations @ member "estimates" st.estimates
  in
  (* Recorder counters and tenant series come from the recorder's own
     mutex — never inside the server lock. *)
  let recorder_kvs =
    [
      ("records", string_of_int (Recorder.records t.recorder));
      ("records_dropped", string_of_int (Recorder.dropped t.recorder));
      ("traces_retained", string_of_int (Recorder.retained_count t.recorder));
    ]
  in
  counts @ recorder_kvs @ cache_kvs
  @ List.map (fun (k, v) -> ("tenant." ^ k, string_of_int v)) (tenants t)

let recorder t = Some t.recorder

(* A private copy: the caller may keep or mutate it without reaching
   the ledger. *)
let metrics t =
  let snap = Tm.create () in
  Guarded.with_lock t.shared (fun s -> Tm.add_into ~into:snap s.metrics);
  snap

(* The METRICS scrape body: the server's ledger in text exposition
   format, followed by the recorder's own series (records, drops,
   retention, adaptive threshold, per-tenant labels). *)
let metrics_text t =
  Export.prometheus (metrics t) ^ Recorder.prometheus t.recorder

let recent_lines t n =
  List.map
    (fun (r : Recorder.record) ->
      (* The record itself does not store why it was retained; look the
         reason up so RECENT marks which ids TRACE can fetch. *)
      let reason =
        Option.map
          (fun (_, reason, _) -> reason)
          (Recorder.find_trace t.recorder r.Recorder.trace_id)
      in
      Rox_util.Minijson.to_string (Recorder.json_of_record ?reason r))
    (Recorder.recent t.recorder n)

let trace_response t id =
  match Recorder.find_trace t.recorder id with
  | None ->
    Protocol.Err
      ( Protocol.Unknown_id,
        Printf.sprintf "trace %d not retained (never kept, or evicted)" id )
  | Some (_, _, snap) ->
    Protocol.Trace_reply
      ( id,
        Export.chrome_trace_parts
          ~process_name:(Printf.sprintf "rox trace %d" id)
          [ (0, Sink.snapshot_timeline snap, 0) ] )

(* ---- connection handling ------------------------------------------------ *)

let count_request t =
  Guarded.with_lock t.shared (fun s -> Tm.incr s.metrics.Tm.requests_received)

let reply t fd resp =
  Guarded.with_lock t.shared (fun s -> Tm.incr s.metrics.Tm.responses_sent);
  Protocol.write_frame fd (Protocol.render_response resp)

let handle_connection t fd =
  let d = Protocol.decoder () in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* A peer that disconnected before reading its reply is an ordinary
         connection close (SIGPIPE is ignored process-wide, so the failed
         write surfaces as EPIPE), never a server error. *)
      let reply_ok resp =
        try
          reply t fd resp;
          true
        with
        | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
        | End_of_file ->
          false
      in
      let rec loop () =
        match Protocol.read_frame fd d with
        | `Eof -> ()
        | `Corrupt msg ->
          (* The stream cannot be resynchronized: answer the garbage as
             one request (keeping RX601 sound) and close. *)
          count_request t;
          ignore (reply_ok (Protocol.Err (Protocol.Proto, msg)) : bool)
        | `Frame payload -> (
          count_request t;
          match Protocol.parse_request payload with
          | Error msg ->
            if reply_ok (Protocol.Err (Protocol.Proto, msg)) then loop ()
          | Ok Protocol.Ping -> if reply_ok Protocol.Pong then loop ()
          | Ok Protocol.Stats ->
            if reply_ok (Protocol.Stats_reply (stats_kvs t)) then loop ()
          | Ok Protocol.Metrics ->
            if reply_ok (Protocol.Metrics_reply (metrics_text t)) then loop ()
          | Ok (Protocol.Recent n) ->
            if reply_ok (Protocol.Recent_reply (recent_lines t n)) then loop ()
          | Ok (Protocol.Trace_get id) ->
            if reply_ok (trace_response t id) then loop ()
          | Ok Protocol.Quit -> ignore (reply_ok Protocol.Bye : bool)
          | Ok (Protocol.Query q) -> (
            match submit_async t q with
            | `Rejected ->
              if reply_ok (Protocol.Err (Protocol.Busy, "admission queue full"))
              then loop ()
            | `Ticket tk -> if reply_ok (await t tk) then loop ()))
      in
      loop ())

(* Admit or bounce one accepted connection. The cap bounds the handler
   thread pool — admission control only bounds queued queries: an
   over-limit connection is answered one best-effort [ERR busy] frame —
   outside the request/response audit, since it answers the connection
   attempt rather than a parsed frame — and closed. *)
let dispatch_connection t fd =
  let admitted =
    Guarded.with_lock t.shared (fun s ->
        if s.conns >= t.cfg.max_connections then begin
          s.conn_rejected <- s.conn_rejected + 1;
          false
        end
        else begin
          s.conns <- s.conns + 1;
          true
        end)
  in
  if not admitted then begin
    (try
       Protocol.write_frame fd
         (Protocol.render_response
            (Protocol.Err (Protocol.Busy, "connection limit reached")))
     with Unix.Unix_error _ | End_of_file -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  end
  else
    let (_ : Thread.t) =
      Thread.create
        (fun () ->
          Fun.protect
            ~finally:(fun () ->
              Guarded.with_lock t.shared (fun s -> s.conns <- s.conns - 1))
            (fun () ->
              try handle_connection t fd
              with _ -> ( try Unix.close fd with Unix.Unix_error _ -> ())))
        ()
    in
    ()

let serve t listen_fd =
  Lazy.force ignore_sigpipe;
  let rec loop () =
    let stop = Guarded.with_lock t.shared (fun s -> s.stopping) in
    if not stop then
      match Unix.accept listen_fd with
      | fd, _ ->
        dispatch_connection t fd;
        loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.ECONNRESET), _, _)
        ->
        (* The peer vanished between SYN and accept — its problem, not the
           listening socket's. *)
        loop ()
      | exception Unix.Unix_error (((Unix.EMFILE | Unix.ENFILE) as e), _, _) ->
        (* fd exhaustion is load, not a broken listener: back off, retry. *)
        Printf.eprintf "rox serve: accept: %s; backing off\n%!"
          (Unix.error_message e);
        Unix.sleepf 0.05;
        loop ()
      | exception Unix.Unix_error (((Unix.EBADF | Unix.EINVAL) as e), _, _) ->
        (* The listening fd itself is gone (closed or shut down under us):
           nothing left to accept. *)
        Printf.eprintf "rox serve: accept: %s; stopping\n%!"
          (Unix.error_message e)
      | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "rox serve: accept: %s; retrying\n%!"
          (Unix.error_message e);
        Unix.sleepf 0.01;
        loop ()
  in
  loop ()
