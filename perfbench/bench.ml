(* The regression benchmark's measuring program: one workload, one seed,
   one run.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--trace-dir D]

   Human-readable progress goes to stderr. Standard output carries one
   JSON line with the run's stamp (machine, sizes, sample counts), then,
   as the last line, the result object: correctness, attempt/failure
   counts and the metrics — the end-to-end set with [--trace 0], the
   per-layer set with [--trace 1]. The exit code is non-zero when any
   answer differs from the oracle or the load generator fell behind. *)

module W = Perfbench.Workloads
module L = Perfbench.Layers
module P = Rox_serve.Protocol
module S = Rox_serve.Server
module Sink = Rox_telemetry.Sink
module Tm = Rox_telemetry.Metrics
module Clock = Rox_telemetry.Clock
module Cost = Rox_algebra.Cost
module Optimizer = Rox_core.Optimizer
module Session = Rox_core.Session
module Compile = Rox_xquery.Compile
module Store = Rox_cache.Store
module Lru = Rox_cache.Lru
module J = Rox_util.Minijson

let log fmt = Printf.ksprintf (fun s -> prerr_endline s) fmt

(* ---- measurement helpers ------------------------------------------------ *)

let now_ns = Clock.now_ns
let secs_of_ns ns = float_of_int ns /. 1e9
let ms_of_ns ns = float_of_int ns /. 1e6

(* Nearest-rank percentile over a float list (q in [0, 1]). *)
let percentile values q =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median values = percentile values 0.5

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* High-water resident set size of this process, from /proc (kB → MB). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

let nproc () =
  try
    let ic = Unix.open_process_in "nproc" in
    let n = int_of_string (String.trim (input_line ic)) in
    ignore (Unix.close_process_in ic : Unix.process_status);
    n
  with _ -> Domain.recommended_domain_count ()

(* Set-up is repeated and the median reported, so work moved into set-up
   shows without one slow repetition deciding the number. Half the
   repetitions run before the timed phase and half after it, so one run
   samples the host at two moments half a minute apart. *)
let setup_reps = 4

(* [setup_reps] timed builds; every value but the last is released. *)
let timed_setups ~release build =
  let rec go i acc last =
    if i = setup_reps then (List.rev acc, Option.get last)
    else begin
      Option.iter release last;
      Gc.compact ();
      let t0 = now_ns () in
      let v = build () in
      let dt = secs_of_ns (Clock.elapsed_ns t0) in
      go (i + 1) (dt :: acc) (Some v)
    end
  in
  go 0 [] None

let later_setups ~release build =
  let times, last = timed_setups ~release build in
  release last;
  times

(* ---- result assembly ------------------------------------------------------ *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable metrics : (string * string * float) list;  (* name, unit, value *)
  mutable stamp : (string * J.t) list;
}

let result () = { attempted = 0; failed = 0; wrong = 0; metrics = []; stamp = [] }
let put r name unit v = r.metrics <- (name, unit, v) :: r.metrics
let note r key v = r.stamp <- (key, v) :: r.stamp
let num x = J.Num x
let int n = J.Num (float_of_int n)

let emit r ~workload ~seed ~trace =
  let stamp =
    J.Obj
      ([
         ("workload", J.Str workload);
         ("seed", int seed);
         ("trace", J.Bool trace);
         ("nproc", int (nproc ()));
         ("recommended_domain_count", int (Domain.recommended_domain_count ()));
         ("ocaml_version", J.Str Sys.ocaml_version);
         ("failed_frac", num (ratio r.failed (max 1 r.attempted)));
         ("wrong_answers", int r.wrong);
       ]
      @ List.rev r.stamp)
  in
  print_endline (J.to_string (J.Obj [ ("stamp", stamp) ]));
  List.iter
    (fun (name, unit, v) -> log "  %-32s %14.4f %s" name v unit)
    (List.rev r.metrics);
  let metrics =
    List.rev_map
      (fun (name, unit, v) -> (name, J.Obj [ ("value", num v); ("unit", J.Str unit) ]))
      r.metrics
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (r.wrong = 0));
            ("attempted", int r.attempted);
            ("failed", int r.failed);
            ("metrics", J.Obj metrics);
          ]))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* The traced run's artifact: the kept sinks as Chrome trace-event JSON,
   re-parsed and schema-checked before it is written. *)
let write_chrome ~trace_dir ~workload ~seed render =
  let json = render () in
  match Result.bind (J.parse json) Rox_telemetry.Export.validate_chrome with
  | Error msg -> failwith ("chrome trace failed validation: " ^ msg)
  | Ok events ->
    (try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat trace_dir (Printf.sprintf "%s-seed%d.trace.json" workload seed) in
    write_file path json;
    log "trace: %d complete events -> %s" events path;
    path

let end_to_end =
  [
    ("setup_s", "s"); ("latency_p50_ms", "ms"); ("latency_p99_ms", "ms");
    ("throughput_qps", "1/s"); ("sustained_qps", "1/s"); ("work_units_per_query", "units");
    ("ok_frac", "fraction"); ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("xquery.compile_us", "us"); ("xquery.tail_us", "us");
    ("core.query_self_ms", "ms"); ("core.exec_sampled.count", "count");
    ("core.exec_sampled.ms", "ms"); ("core.chain_round.count", "count");
    ("core.chain_round.self_ms", "ms"); ("core.race_probe.count", "count");
    ("core.race_probe.ms", "ms"); ("core.sampling_work_units", "units");
    ("core.sampling_share", "fraction"); ("core.sampling_ns_per_unit", "ns/unit");
    ("joingraph.execute_edge.count", "count"); ("joingraph.execute_edge.ms", "ms");
    ("joingraph.execute_edge_share", "fraction");
    ("joingraph.execution_work_units", "units");
    ("joingraph.ns_per_work_unit", "ns/unit"); ("joingraph.intermediate_rows", "rows");
    ("pool.worker_ms", "ms");
    ("cache.relation.hit_ratio", "fraction"); ("cache.relation.lookups", "count");
    ("cache.estimate.hit_ratio", "fraction"); ("cache.estimate.lookups", "count");
    ("cache.evictions", "count"); ("cache.resident_mb", "MB");
    ("cache.lock_waits", "count"); ("cache.fast_hits", "count");
    ("serve.queue_wait_ms", "ms"); ("serve.exec_ms", "ms"); ("serve.overhead_ms", "ms");
    ("serve.coalesce_ratio", "fraction"); ("serve.admission_rejects", "count");
    ("protocol.encode_us", "us"); ("protocol.decode_us", "us");
    ("telemetry.trace_overhead_pct", "%"); ("telemetry.spans_per_query", "count");
    ("telemetry.spans_dropped", "count"); ("telemetry.flight_record_us", "us");
    ("gc.alloc_mb_per_query", "MB"); ("gc.major_collections", "1/query");
    ("workload.generate_s", "s"); ("setup.server_start_ms", "ms");
    ("loadgen.lag_p99_ms", "ms"); ("trace.unaccounted_share", "fraction");
  ]

(* Print the metrics in the listed order. A per-layer metric a workload
   does not exercise reads 0, so every traced run prints the same names. *)
let order_metrics r names =
  let have = r.metrics in
  r.metrics <-
    List.rev_map
      (fun (name, unit) ->
        match List.find_opt (fun (n, _, _) -> n = name) have with
        | Some m -> m
        | None -> (name, unit, 0.0))
      names

let xmark_documents scale =
  let p = Rox_workload.Xmark.scaled scale in
  J.Obj
    [
      ("xmark_scale", num scale); ("items", int p.Rox_workload.Xmark.n_items);
      ("persons", int p.Rox_workload.Xmark.n_persons);
      ("auctions", int p.Rox_workload.Xmark.n_auctions);
    ]

(* ---- one-shot workloads ---------------------------------------------------- *)

let work_units (c : Cost.counter) = Cost.read c Cost.Sampling + Cost.read c Cost.Execution

(* One query with an enabled sink: compile, [Optimizer.run] and the tail
   timed apart, then [Session.flight_record] timed against [recorder]. *)
let traced_query engine recorder text =
  let sink = Sink.create ~enabled:true () in
  let t0 = now_ns () in
  let compiled = Compile.compile_string ~telemetry:sink engine text in
  let compile_ns = Clock.elapsed_ns t0 in
  let session = Session.create ~telemetry:sink () in
  let run = Optimizer.run session compiled in
  let t1 = now_ns () in
  let ids =
    Session.confine session (fun () ->
        Rox_xquery.Tail.apply ~sanitize:(Session.sanitize session)
          ~meter:(Cost.execution_meter run.Optimizer.counter)
          compiled.Compile.tail run.Optimizer.relation)
  in
  let tail_ns = Clock.elapsed_ns t1 in
  let wall_ns = Clock.elapsed_ns t0 in
  let t2 = now_ns () in
  ignore
    (Session.flight_record session recorder ~query:text ~plan:run.Optimizer.edge_order
       ~latency_ns:wall_ns ~status:"ok"
      : Rox_telemetry.Recorder.record);
  let flight_ns = Clock.elapsed_ns t2 in
  (ids, run, sink, compile_ns, tail_ns, wall_ns, flight_ns)

let untraced_query engine text =
  let t0 = now_ns () in
  let compiled = Compile.compile_string engine text in
  let ids, run = Optimizer.answer (Session.create ()) compiled in
  (ids, run, Clock.elapsed_ns t0)

type traced_totals = {
  layers : L.t;
  mutable n : int;
  mutable compile_ns : int;
  mutable tail_ns : int;
  mutable wall_ns : int;
  mutable flight_ns : int;
  mutable sampling_units : int;
  mutable execution_units : int;
  mutable rows : int;
  mutable walls : float list;
  mutable kept : Sink.t list;
}

let kept_sinks = 32

let one_shot r ~workload ~seed ~seconds ~trace ~trace_dir ~engine ~queries =
  let n = Array.length queries in
  log "%s: %d distinct queries; computing reference answers" workload n;
  let refs = Array.map (W.reference engine) queries in
  (* Warm-up pass, untimed: every query once, its deterministic work units
     recorded — the timed loop then checks they repeat exactly. *)
  let units =
    Array.map
      (fun text ->
        let _, run, _ = untraced_query engine text in
        work_units run.Optimizer.counter)
      queries
  in
  let order = Array.init n Fun.id in
  Rox_util.Xoshiro.shuffle (Rox_util.Xoshiro.create (seed lxor 0x0d)) order;
  let latencies = ref [] in
  let units_repeat = ref true in
  let check i ids run =
    r.attempted <- r.attempted + 1;
    if ids <> refs.(i) then begin
      r.failed <- r.failed + 1;
      r.wrong <- r.wrong + 1;
      log "WRONG ANSWER: %s" queries.(i)
    end;
    if work_units run.Optimizer.counter <> units.(i) then units_repeat := false
  in
  let attempt i f =
    match f () with
    | v -> Some v
    | exception e ->
      r.attempted <- r.attempted + 1;
      r.failed <- r.failed + 1;
      log "query failed (%s): %s" (Printexc.to_string e) queries.(i);
      None
  in
  let tt =
    {
      layers = L.create (); n = 0; compile_ns = 0; tail_ns = 0; wall_ns = 0;
      flight_ns = 0; sampling_units = 0; execution_units = 0;
      rows = 0; walls = []; kept = [];
    }
  in
  let recorder = Rox_telemetry.Recorder.create () in
  let pass_lat = ref [] in
  let untraced i =
    Option.iter
      (fun (ids, run, dt) ->
        check i ids run;
        latencies := ms_of_ns dt :: !latencies;
        pass_lat := ms_of_ns dt :: !pass_lat)
      (attempt i (fun () -> untraced_query engine queries.(i)))
  in
  let traced i =
    Option.iter
      (fun (ids, run, sink, compile_ns, tail_ns, wall_ns, flight_ns) ->
        check i ids run;
        L.add tt.layers ~dropped:(Sink.dropped sink) (Sink.spans sink);
        tt.n <- tt.n + 1;
        tt.compile_ns <- tt.compile_ns + compile_ns;
        tt.tail_ns <- tt.tail_ns + tail_ns;
        tt.wall_ns <- tt.wall_ns + wall_ns;
        tt.flight_ns <- tt.flight_ns + flight_ns;
        tt.sampling_units <- tt.sampling_units + Cost.read run.Optimizer.counter Cost.Sampling;
        tt.execution_units <- tt.execution_units + Cost.read run.Optimizer.counter Cost.Execution;
        tt.rows <- List.fold_left (fun acc (_, rows) -> acc + rows) tt.rows run.Optimizer.edge_rows;
        tt.walls <- ms_of_ns wall_ns :: tt.walls;
        if List.length tt.kept < kept_sinks then tt.kept <- sink :: tt.kept)
      (attempt i (fun () -> traced_query engine recorder queries.(i)))
  in
  let gc0 = Gc.quick_stat () in
  let alloc = ref 0.0 in
  let untraced_n = ref 0 in
  let t0 = now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let k = ref 0 in
  let passes = ref [] and pass_start = ref t0 in
  while now_ns () < deadline do
    let i = order.(!k mod n) in
    let measured_untraced () =
      let a0 = Gc.allocated_bytes () in
      untraced i;
      alloc := !alloc +. (Gc.allocated_bytes () -. a0);
      incr untraced_n
    in
    (* The traced run alternates traced and untraced executions of the
       same query, in alternating order, so the overhead estimate sees the
       same queries under the same drift. *)
    if not trace then untraced i
    else if !k mod 2 = 0 then (measured_untraced (); traced i)
    else (traced i; measured_untraced ());
    incr k;
    if !k mod n = 0 then begin
      passes :=
        ( float_of_int n /. secs_of_ns (Clock.elapsed_ns !pass_start),
          median !pass_lat,
          percentile !pass_lat 0.99 )
        :: !passes;
      pass_lat := [];
      pass_start := now_ns ()
    end
  done;
  let loop_s = secs_of_ns (Clock.elapsed_ns t0) in
  let rss = peak_rss_mb () in
  let gc1 = Gc.quick_stat () in
  let samples = List.length !latencies in
  note r "distinct_queries" (int n);
  note r "timed_seconds" (num loop_s);
  note r "latency_samples" (int samples);
  note r "samples_beyond_p99" (int (samples - int_of_float (ceil (0.99 *. float_of_int samples))));
  note r "work_units_repeat_exactly" (J.Bool !units_repeat);
  note r "passes" (int (List.length !passes));
  note r "pass_qps" (J.Arr (List.rev_map (fun (q, _, _) -> num q) !passes));
  note r "pass_p50_ms" (J.Arr (List.rev_map (fun (_, p, _) -> num p) !passes));
  note r "pass_p99_ms" (J.Arr (List.rev_map (fun (_, _, p) -> num p) !passes));
  let pooled_qps = float_of_int samples /. loop_s in
  note r "pooled_qps" (num pooled_qps);
  note r "pooled_p50_ms" (num (median !latencies));
  note r "pooled_p99_ms" (num (percentile !latencies 0.99));
  if not trace then begin
    (* Other tenants of the host slow whole passes down, never speed them
       up, so the best complete pass is the steadiest estimate of the
       program's own rate, median and tail (the minimum-of-samples rule of
       Chen and Revels, "Robust benchmarking in noisy environments"). *)
    let over_passes f init pooled =
      match !passes with [] -> pooled | ps -> List.fold_left f init ps
    in
    let qps = over_passes (fun acc (q, _, _) -> Float.max acc q) 0.0 pooled_qps in
    put r "latency_p50_ms" "ms"
      (over_passes (fun acc (_, p, _) -> Float.min acc p) infinity (median !latencies));
    put r "latency_p99_ms" "ms"
      (over_passes (fun acc (_, _, p) -> Float.min acc p) infinity
         (percentile !latencies 0.99));
    put r "throughput_qps" "1/s" qps;
    (* A closed loop has no backlog: it sustains exactly its completion rate. *)
    put r "sustained_qps" "1/s" qps;
    put r "work_units_per_query" "units"
      (float_of_int (Array.fold_left ( + ) 0 units) /. float_of_int n);
    put r "peak_rss_mb" "MB" rss
  end
  else begin
    let per x = float_of_int x /. float_of_int (max 1 tt.n) in
    let lay name = L.find tt.layers name in
    let sampled = lay "exec_sampled" and probe = lay "race_probe" in
    let chain = lay "chain_round" and edge = lay "execute_edge" in
    let untraced_p50 = median !latencies and traced_p50 = median tt.walls in
    put r "xquery.compile_us" "us" (per tt.compile_ns /. 1e3);
    put r "xquery.tail_us" "us" (per tt.tail_ns /. 1e3);
    put r "core.query_self_ms" "ms" (per (lay "query").L.self_ns /. 1e6);
    put r "core.exec_sampled.count" "count" (per sampled.L.count);
    put r "core.exec_sampled.ms" "ms" (per sampled.L.total_ns /. 1e6);
    put r "core.chain_round.count" "count" (per chain.L.count);
    put r "core.chain_round.self_ms" "ms" (per chain.L.self_ns /. 1e6);
    put r "core.race_probe.count" "count" (per probe.L.count);
    put r "core.race_probe.ms" "ms" (per probe.L.total_ns /. 1e6);
    put r "core.sampling_work_units" "units" (per tt.sampling_units);
    put r "core.sampling_share" "fraction"
      (ratio tt.sampling_units (tt.sampling_units + tt.execution_units));
    put r "core.sampling_ns_per_unit" "ns/unit"
      (ratio (sampled.L.total_ns + probe.L.total_ns) tt.sampling_units);
    put r "joingraph.execute_edge.count" "count" (per edge.L.count);
    put r "joingraph.execute_edge.ms" "ms" (per edge.L.total_ns /. 1e6);
    put r "joingraph.execute_edge_share" "fraction" (ratio edge.L.total_ns tt.wall_ns);
    put r "joingraph.execution_work_units" "units" (per tt.execution_units);
    put r "joingraph.ns_per_work_unit" "ns/unit" (ratio edge.L.total_ns tt.execution_units);
    put r "joingraph.intermediate_rows" "rows" (per tt.rows);
    put r "pool.worker_ms" "ms" (per (L.worker_total_ns tt.layers) /. 1e6);
    put r "telemetry.trace_overhead_pct" "%" (100.0 *. ((traced_p50 /. untraced_p50) -. 1.0));
    put r "telemetry.spans_per_query" "count" (per tt.layers.L.spans);
    put r "telemetry.spans_dropped" "count" (float_of_int tt.layers.L.dropped);
    put r "telemetry.flight_record_us" "us" (per tt.flight_ns /. 1e3);
    put r "gc.alloc_mb_per_query" "MB" (!alloc /. float_of_int (max 1 !untraced_n) /. 1048576.0);
    put r "gc.major_collections" "1/query"
      (ratio (gc1.Gc.major_collections - gc0.Gc.major_collections) (!untraced_n + tt.n));
    put r "trace.unaccounted_share" "fraction"
      (ratio (tt.wall_ns - tt.compile_ns - (lay "query").L.total_ns - tt.tail_ns) tt.wall_ns);
    note r "traced_queries" (int tt.n);
    note r "truncated_queries" (int tt.layers.L.truncated_queries);
    note r "untraced_p50_ms" (num untraced_p50);
    note r "traced_p50_ms" (num traced_p50);
    let sinks = List.rev tt.kept in
    let path =
      write_chrome ~trace_dir ~workload ~seed (fun () ->
          Rox_telemetry.Export.chrome_trace ~process_name:workload
            (List.mapi (fun i s -> (i + 1, s)) sinks))
    in
    note r "chrome_trace" (J.Str path)
  end

(* ---- served-mix -------------------------------------------------------------- *)

(* Fixed on every commit, never derived from a measured saturation point:
   the ladder of offered rates (q/s, with seconds per rung as a share of
   the run), the rung whose open-loop latency the stamp reports, the share
   of the run for the closed-loop leg, and the p99 limit a rung must meet
   to count as sustained. *)
let ladder = [ (25.0, 0.08); (50.0, 0.12); (100.0, 0.25); (150.0, 0.15) ]
let reference_rate = 100.0
let closed_loop_share = 0.35
let p99_limit_ms = 100.0
let lag_limit_ms = 50.0

(* Latencies are also summarised per window of [window_s] seconds of
   replies: the host's other tenants stall the whole box for tens of
   milliseconds at a time, and a stall builds a queue that a pooled
   percentile cannot tell from the program's own. *)
let window_s = 2.0
let served_scale = 0.1
let served_strata = 16
let served_rounds = 15
let hot_head = served_strata
let relation_budget = 1024 * 1024
let estimate_budget = 1024 * 1024

type conn = {
  fd : Unix.file_descr;
  dec : P.decoder;
  (* Outstanding requests in send order: (index into the request stream,
     scheduled send, actual send). *)
  pending : (int * int64 * int64) Queue.t;
  mutable free_at : int64;  (* when the server could start the head *)
}

type rung = {
  rate : float;
  mutable sent : int;
  mutable lat : float list;  (* newest first *)
  mutable lags : float list;
  mutable fails : int;
  mutable first_ns : int64;
  mutable last_reply_ns : int64;
}

type client = {
  conns : conn array;
  texts : string array;
  refs : int array array;
  stream : int array;  (* text index of every request, cycled *)
  mutable next : int;
  mutable encode_ns : int;
  mutable decode_ns : int;
  mutable timed_codec : int;
  mutable round_trip_ns : int;
  mutable round_trips : int;
  mutable units : int;
  mutable answered : int;
  time_codec : bool;
}

let text_of cl idx = cl.stream.(idx mod Array.length cl.stream)

let read_ready cl r (c : conn) on_reply =
  let buf = Bytes.create 65536 in
  let got = Unix.read c.fd buf 0 (Bytes.length buf) in
  if got = 0 then failwith "server closed a connection";
  P.feed c.dec (Bytes.sub_string buf 0 got);
  let rec frames () =
    match P.next c.dec with
    | `Awaiting -> ()
    | `Corrupt m -> failwith ("corrupt reply frame: " ^ m)
    | `Frame payload ->
      let t0 = now_ns () in
      let resp = P.parse_response payload in
      let now = now_ns () in
      if cl.time_codec then begin
        cl.decode_ns <- cl.decode_ns + Int64.to_int (Int64.sub now t0);
        cl.timed_codec <- cl.timed_codec + 1
      end;
      let idx, sched, sent = Queue.pop c.pending in
      let start = if Int64.compare sent c.free_at > 0 then sent else c.free_at in
      cl.round_trip_ns <- cl.round_trip_ns + Int64.to_int (Int64.sub now start);
      cl.round_trips <- cl.round_trips + 1;
      c.free_at <- now;
      r.attempted <- r.attempted + 1;
      let ok =
        match resp with
        | Ok (P.Answer a) ->
          cl.units <- cl.units + a.sampling + a.execution;
          cl.answered <- cl.answered + 1;
          if a.ids <> cl.refs.(text_of cl idx) then begin
            r.wrong <- r.wrong + 1;
            log "WRONG ANSWER (served): %s" cl.texts.(text_of cl idx);
            false
          end
          else true
        | Ok (P.Err (kind, msg)) ->
          log "served query failed: %s %s" (P.err_kind_label kind) msg;
          false
        | Ok _ | Error _ -> false
      in
      if not ok then r.failed <- r.failed + 1;
      on_reply ~ok ~sched ~now;
      frames ()
  in
  frames ()

let send cl (c : conn) ~sched =
  let idx = cl.next in
  cl.next <- idx + 1;
  let t0 = now_ns () in
  let frame = P.frame (P.render_request (P.Query (P.query cl.texts.(text_of cl idx)))) in
  if cl.time_codec then cl.encode_ns <- cl.encode_ns + Clock.elapsed_ns t0;
  let b = Bytes.unsafe_of_string frame in
  let rec write off =
    if off < Bytes.length b then write (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  write 0;
  if Queue.is_empty c.pending then c.free_at <- now_ns ();
  Queue.push (idx, sched, now_ns ()) c.pending

let outstanding cl = Array.fold_left (fun acc c -> acc + Queue.length c.pending) 0 cl.conns

(* Wait for replies until [until] (or until nothing is outstanding when
   [until] is None), dispatching each to [on_reply]. *)
let pump cl r ~until on_reply =
  let rec go () =
    let timeout =
      match until with
      | Some t -> Int64.to_float (Int64.sub t (now_ns ())) /. 1e9
      | None -> 1.0
    in
    let waiting = outstanding cl > 0 in
    if (until = None && waiting) || (until <> None && timeout > 0.0) then begin
      let fds = Array.to_list (Array.map (fun c -> c.fd) cl.conns) in
      let ready, _, _ =
        if waiting then Unix.select fds [] [] (Float.max 0.0 timeout)
        else (Unix.sleepf (Float.max 0.0 timeout); ([], [], []))
      in
      List.iter
        (fun fd ->
          Array.iter (fun c -> if c.fd = fd then read_ready cl r c on_reply) cl.conns)
        ready;
      go ()
    end
  in
  go ()

(* Open loop: request i of the rung is due at start + i/rate whatever the
   server is doing, and its latency runs from that due time. Requests
   alternate between the connections; a connection answers in order, so
   a request sent while its connection is busy waits behind it — queueing
   the user would see. *)
let open_loop cl r ~rate ~seconds =
  let n = max 1 (int_of_float (rate *. seconds)) in
  let rg =
    { rate; sent = 0; lat = []; lags = []; fails = 0; first_ns = 0L; last_reply_ns = 0L }
  in
  let on_reply ~ok ~sched ~now =
    if ok then rg.lat <- ms_of_ns (Int64.to_int (Int64.sub now sched)) :: rg.lat
    else rg.fails <- rg.fails + 1;
    rg.last_reply_ns <- now
  in
  let start = Int64.add (now_ns ()) 1_000_000L in
  rg.first_ns <- start;
  for i = 0 to n - 1 do
    let sched = Int64.add start (Int64.of_float (float_of_int i /. rate *. 1e9)) in
    pump cl r ~until:(Some sched) on_reply;
    rg.lags <- ms_of_ns (Clock.elapsed_ns sched) :: rg.lags;
    send cl cl.conns.(i mod Array.length cl.conns) ~sched;
    rg.sent <- rg.sent + 1
  done;
  pump cl r ~until:None on_reply;
  rg

(* Closed loop: each connection sends its next request the moment the
   previous reply arrives — the served capacity, and the request latency,
   with one outstanding request per connection. Returns the completion
   rate of every slice of the leg and every latency. *)
let closed_loop cl r ~seconds =
  let deadline = Int64.add (now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let t0 = now_ns () in
  (* Completed replies per [window_s] / 2 slice of the leg. *)
  let slice = window_s /. 2.0 in
  let slices = Array.make (int_of_float (seconds /. slice) + 2) 0 in
  let lat = ref [] in
  Array.iter (fun c -> send cl c ~sched:(now_ns ())) cl.conns;
  let on_reply ~ok ~sched ~now =
    if Int64.compare now deadline < 0 then begin
      if ok then begin
        let i = int_of_float (secs_of_ns (Int64.to_int (Int64.sub now t0)) /. slice) in
        slices.(i) <- slices.(i) + 1;
        lat := ms_of_ns (Int64.to_int (Int64.sub now sched)) :: !lat
      end;
      Array.iter (fun c -> if Queue.is_empty c.pending then send cl c ~sched:now) cl.conns
    end
  in
  pump cl r ~until:None on_reply;
  ( Array.map (fun n -> float_of_int n /. slice) (Array.sub slices 0 (int_of_float (seconds /. slice))),
    !lat )

(* The highest percentile, up to p99, with at least ten samples beyond it:
   a short rung's p99 would rest on one or two samples. *)
let tail_q samples = Float.min 0.99 (1.0 -. (10.0 /. float_of_int (max 1 (List.length samples))))

(* A rung's latencies cut into consecutive windows of [window_s] seconds'
   worth of replies (the last, partial window joins its predecessor). *)
let windows rg =
  let size = max 1 (int_of_float (rg.rate *. window_s)) in
  let rec cut acc cur n = function
    | [] -> (
      match (cur, acc) with
      | [], _ -> List.rev acc
      | _, prev :: rest when n < size -> List.rev ((cur @ prev) :: rest)
      | _ -> List.rev (cur :: acc))
    | x :: rest when n = size -> cut (cur :: acc) [ x ] 1 rest
    | x :: rest -> cut acc (x :: cur) (n + 1) rest
  in
  cut [] [] 0 (List.rev rg.lat)

let lru_sum f (s : Store.stats) = f s.Store.relations + f s.Store.estimates

let served r ~workload ~seed ~seconds ~trace ~trace_dir =
  let gen_times = ref [] and start_times = ref [] in
  let build () =
    let t0 = now_ns () in
    (* One document for every seed, like the query set: the seed draws
       only the request sequence, so the cache sees the same working set. *)
    let engine = W.xmark_engine ~seed:0 ~scale:served_scale in
    gen_times := secs_of_ns (Clock.elapsed_ns t0) :: !gen_times;
    let store = Store.create ~relation_budget ~estimate_budget engine in
    let t1 = now_ns () in
    let server = S.create (S.config ~cache:store engine) in
    start_times := ms_of_ns (Clock.elapsed_ns t1) :: !start_times;
    (engine, store, server)
  in
  let release (_, _, server) = S.shutdown server in
  let setup_before, (engine, store, server) = timed_setups ~release build in
  let texts = W.served_texts ~strata:served_strata ~rounds:served_rounds in
  log "%s: %d distinct queries; computing reference answers" workload (Array.length texts);
  let refs = Array.map (W.reference engine) texts in
  let next_rank = W.zipf_sampler ~seed (Array.length texts) in
  let warmup = 400 in
  let stream = Array.init 65536 (fun _ -> next_rank ()) in
  let conns =
    Array.init 2 (fun _ ->
        let srv, cli = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let handler = Thread.create (S.handle_connection server) srv in
        ( { fd = cli; dec = P.decoder (); pending = Queue.create (); free_at = 0L },
          handler ))
  in
  let client () =
    {
      conns = Array.map fst conns; texts; refs; stream; next = 0; encode_ns = 0;
      decode_ns = 0; timed_codec = 0; round_trip_ns = 0; round_trips = 0; units = 0;
      answered = 0; time_codec = trace;
    }
  in
  (* Warm-up, untimed and unscored: fill the cache with the mix's hot head. *)
  let warm = client () and scratch = result () in
  for _ = 1 to warmup / Array.length warm.conns do
    Array.iter (fun c -> send warm c ~sched:(now_ns ())) warm.conns;
    pump warm scratch ~until:None (fun ~ok:_ ~sched:_ ~now:_ -> ())
  done;
  if scratch.wrong > 0 || scratch.failed > 0 then failwith "warm-up served a failure";
  let cl = { (client ()) with next = warm.next } in
  let m0 = S.metrics server and a0 = S.audit server and st0 = Store.stats store in
  let rungs =
    List.map
      (fun (rate, share) ->
        let rg = open_loop cl r ~rate ~seconds:(share *. seconds) in
        log "  rung %5.0f q/s: %d sent, p50 %.2f ms, p99 %.2f ms, lag p99 %.2f ms, fails %d"
          rate rg.sent (median rg.lat) (percentile rg.lat 0.99) (percentile rg.lags 0.99)
          rg.fails;
        rg)
      ladder
  in
  let closed, closed_lat = closed_loop cl r ~seconds:(closed_loop_share *. seconds) in
  let closed_qps = Array.fold_left Float.max 0.0 closed in
  log "  closed loop: best slice %.1f q/s" closed_qps;
  Array.iter (fun c -> Unix.close c.fd) cl.conns;
  Array.iter (fun (_, h) -> Thread.join h) conns;
  let m1 = S.metrics server and a1 = S.audit server and st1 = Store.stats store in
  S.shutdown server;
  let rss = peak_rss_mb () in
  (* Working-set sizes, for the stamp: the cache residency after every
     distinct query, and after the hot head alone, each in a store with
     no effective budget. The served store's fixed budget sits between.
     Measured after the peak RSS reading, which they would inflate. *)
  let resident texts =
    let big = Store.create ~relation_budget:max_int ~estimate_budget:max_int engine in
    Array.iter
      (fun text ->
        ignore
          (Optimizer.answer (Session.create ~cache:big ())
             (Compile.compile_string engine text)
            : int array * Optimizer.result))
      texts;
    lru_sum (fun (s : Lru.stats) -> s.Lru.bytes) (Store.stats big)
  in
  let working_set = resident texts in
  let head = resident (Array.sub texts 0 hot_head) in
  let setup_times = setup_before @ later_setups ~release build in
  let audit_clean = S.self_check server = [] in
  if not audit_clean then begin
    r.failed <- r.failed + 1;
    log "serve self-audit reported diagnostics"
  end;
  let reference = List.find (fun rg -> rg.rate = reference_rate) rungs in
  (* A rung is sustained when its median window keeps the tail within the
     limit: a lone stalled window does not fail it, a queue that grows
     through the rung fails its later half. *)
  let passes rg =
    rg.fails = 0
    && median (List.map (fun w -> percentile w (tail_q w)) (windows rg)) <= p99_limit_ms
  in
  let achieved rg =
    float_of_int (List.length rg.lat) /. secs_of_ns (Int64.to_int (Int64.sub rg.last_reply_ns rg.first_ns))
  in
  let rec sustained acc = function
    | rg :: rest when passes rg -> sustained (achieved rg) rest
    | _ -> acc
  in
  let all_lags = List.concat_map (fun rg -> rg.lags) rungs in
  let lag_p99 = percentile all_lags 0.99 in
  let samples = List.length closed_lat in
  note r "documents" (xmark_documents served_scale);
  note r "distinct_queries" (int (Array.length texts));
  note r "hot_head_queries" (int hot_head);
  note r "cache_budget_bytes" (int (relation_budget + estimate_budget));
  note r "working_set_bytes" (int working_set);
  note r "hot_head_bytes" (int head);
  note r "budget_between_head_and_working_set"
    (J.Bool (head < relation_budget + estimate_budget && relation_budget + estimate_budget < working_set));
  note r "rate_ladder_qps" (J.Arr (List.map (fun (rate, _) -> num rate) ladder));
  note r "reference_rate_qps" (num reference_rate);
  note r "p99_limit_ms" (num p99_limit_ms);
  note r "latency_samples" (int samples);
  note r "samples_beyond_p99" (int (samples - int_of_float (ceil (0.99 *. float_of_int samples))));
  note r "rungs"
    (J.Arr
       (List.map
          (fun rg ->
            J.Obj
              [
                ("rate", num rg.rate); ("sent", int rg.sent); ("samples", int (List.length rg.lat));
                ("p50_ms", num (median rg.lat)); ("p99_ms", num (percentile rg.lat 0.99));
                ("window_p50_ms", J.Arr (List.map (fun w -> num (median w)) (windows rg)));
                ("window_p99_ms", J.Arr (List.map (fun w -> num (percentile w 0.99)) (windows rg)));
                ("achieved_qps", num (achieved rg)); ("passes", J.Bool (passes rg));
              ])
          rungs));
  note r "loadgen_lag_p99_ms" (num lag_p99);
  note r "closed_loop_slice_qps" (J.Arr (Array.to_list (Array.map num closed)));
  note r "audit_clean" (J.Bool audit_clean);
  if lag_p99 > lag_limit_ms then begin
    log "INVALID RUN: the load generator fell behind (lag p99 %.2f ms > %.0f ms)" lag_p99
      lag_limit_ms;
    exit 3
  end;
  note r "reference_p50_ms" (num (median reference.lat));
  note r "reference_p99_ms" (num (percentile reference.lat 0.99));
  if not trace then begin
    (* Latency with one request outstanding per connection: a stall of the
       host delays the two requests in flight, where in the open loop it
       queues every arrival behind it (the per-rung figures in the stamp). *)
    put r "latency_p50_ms" "ms" (median closed_lat);
    put r "latency_p99_ms" "ms" (percentile closed_lat 0.99);
    put r "throughput_qps" "1/s" closed_qps;
    put r "sustained_qps" "1/s" (sustained 0.0 rungs);
    put r "work_units_per_query" "units" (ratio cl.units cl.answered);
    put r "peak_rss_mb" "MB" rss
  end
  else begin
    let h_mean (h1 : Tm.histogram) (h0 : Tm.histogram) =
      ratio (h1.Tm.h_sum - h0.Tm.h_sum) (h1.Tm.h_count - h0.Tm.h_count)
    in
    let d f = f a1 - f a0 in
    let lru f = lru_sum f st1 - lru_sum f st0 in
    let hit_ratio (f : Store.stats -> Lru.stats) =
      let hits = (f st1).Lru.hits - (f st0).Lru.hits in
      let lookups = hits + (f st1).Lru.misses - (f st0).Lru.misses in
      (ratio hits lookups, lookups)
    in
    let rel_ratio, rel_lookups = hit_ratio (fun s -> s.Store.relations) in
    let est_ratio, est_lookups = hit_ratio (fun s -> s.Store.estimates) in
    let wait_ns = h_mean m1.Tm.queue_wait_ns m0.Tm.queue_wait_ns in
    let serve_ns = h_mean m1.Tm.serve_ns m0.Tm.serve_ns in
    let submitted = d (fun a -> a.Rox_analysis.Serve_check.sv_submitted) in
    put r "cache.relation.hit_ratio" "fraction" rel_ratio;
    put r "cache.relation.lookups" "count" (float_of_int rel_lookups);
    put r "cache.estimate.hit_ratio" "fraction" est_ratio;
    put r "cache.estimate.lookups" "count" (float_of_int est_lookups);
    put r "cache.evictions" "count" (float_of_int (lru (fun s -> s.Lru.evictions)));
    put r "cache.resident_mb" "MB"
      (float_of_int (lru_sum (fun s -> s.Lru.bytes) st1) /. 1048576.0);
    put r "cache.lock_waits" "count" (float_of_int (lru (fun s -> s.Lru.lock_waits)));
    put r "cache.fast_hits" "count" (float_of_int (lru (fun s -> s.Lru.fast_hits)));
    put r "serve.queue_wait_ms" "ms" (wait_ns /. 1e6);
    put r "serve.exec_ms" "ms" ((serve_ns -. wait_ns) /. 1e6);
    put r "serve.overhead_ms" "ms"
      ((ratio cl.round_trip_ns cl.round_trips -. serve_ns) /. 1e6);
    put r "serve.coalesce_ratio" "fraction"
      (ratio (d (fun a -> a.Rox_analysis.Serve_check.sv_coalesced)) submitted);
    put r "serve.admission_rejects" "count"
      (float_of_int (d (fun a -> a.Rox_analysis.Serve_check.sv_rejected)));
    put r "protocol.encode_us" "us" (ratio cl.encode_ns cl.timed_codec /. 1e3);
    put r "protocol.decode_us" "us" (ratio cl.decode_ns cl.timed_codec /. 1e3);
    put r "setup.server_start_ms" "ms" (median !start_times);
    put r "workload.generate_s" "s" (median !gen_times);
    put r "loadgen.lag_p99_ms" "ms" lag_p99;
    (* The served path records every request itself; time the same
       recorder hook on in-process sessions over the mix's hot head. *)
    let recorder = Rox_telemetry.Recorder.create () in
    let flights = ref 0 and spans = ref 0 and dropped = ref 0 in
    let n = 64 in
    for i = 0 to n - 1 do
      let _, _, sink, _, _, _, flight_ns = traced_query engine recorder texts.(i mod hot_head) in
      flights := !flights + flight_ns;
      spans := !spans + Sink.span_count sink;
      dropped := !dropped + Sink.dropped sink
    done;
    put r "telemetry.flight_record_us" "us" (ratio !flights n /. 1e3);
    put r "telemetry.spans_per_query" "count" (ratio !spans n);
    put r "telemetry.spans_dropped" "count" (float_of_int !dropped);
    let path =
      match S.recorder server with
      | None -> None
      | Some rc ->
        let traces = Rox_telemetry.Recorder.traces rc in
        Some
          (write_chrome ~trace_dir ~workload ~seed (fun () ->
               Rox_telemetry.Export.chrome_trace_parts ~process_name:workload
                 (List.map (fun (id, _, _, spans) -> (id, spans, 0)) traces)))
    in
    Option.iter (fun p -> note r "chrome_trace" (J.Str p)) path
  end;
  setup_times

(* ---- entry point ----------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let trace_dir = ref ".bench_build/traces" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME xmark-q1 | dblp-combos | served-mix");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S timed seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR where traced runs write Chrome traces");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 and seed = !seed and seconds = !seconds and workload = !workload in
  let trace_dir = !trace_dir in
  let r = result () in
  let one_shot_workload build queries =
    let before, engine = timed_setups ~release:ignore build in
    one_shot r ~workload ~seed ~seconds ~trace ~trace_dir ~engine ~queries:(queries ());
    before @ later_setups ~release:ignore build
  in
  let setup_times =
    match workload with
    | "xmark-q1" ->
      note r "documents" (xmark_documents 1.0);
      one_shot_workload
        (fun () -> W.xmark_engine ~seed ~scale:1.0)
        (fun () -> W.xmark_queries ~seed ~strata:24)
    | "dblp-combos" ->
      let loaded = ref [] in
      one_shot_workload
        (fun () ->
          let engine, l = W.dblp_engine () in
          loaded := l;
          engine)
        (fun () ->
          let sum f = List.fold_left (fun acc l -> acc + f l) 0 !loaded in
          note r "documents"
            (J.Obj
               [
                 ("dblp_venues", int (List.length !loaded));
                 ("author_tags", int (sum (fun l -> l.Rox_workload.Dblp.author_tag_count)));
                 ("bytes", int (sum (fun l -> l.Rox_workload.Dblp.byte_size)));
               ]);
          W.dblp_queries !loaded)
    | "served-mix" -> served r ~workload ~seed ~seconds ~trace ~trace_dir
    | w ->
      prerr_endline ("unknown workload: " ^ w);
      exit 2
  in
  note r "setup_s_samples" (J.Arr (List.map num setup_times));
  if not trace then begin
    put r "setup_s" "s" (median setup_times);
    put r "ok_frac" "fraction" (1.0 -. ratio r.failed (max 1 r.attempted));
    order_metrics r end_to_end
  end
  else begin
    if workload <> "served-mix" then put r "workload.generate_s" "s" (median setup_times);
    order_metrics r per_layer
  end;
  emit r ~workload ~seed ~trace;
  if r.wrong > 0 then exit 1
