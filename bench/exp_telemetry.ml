(* Telemetry overhead on the Figure 5 workload (the DBLP 4-venue author
   chain): the same query run with telemetry off (null sink — one boolean
   test per instrumentation site), on (spans + metrics recorded, per-run
   sinks merged into one plain registry), and with the flight
   recorder armed on top (per-run record append, tail-sampling retention
   decision, tenant series — the always-on production configuration).

   The contracts are <3% overhead with telemetry OFF relative to the seed
   (the sink must be free when disabled) and <=2% for the recorder arm
   relative to telemetry-on (always-on observability must be affordable).
   Trials interleave the arms and keep the fastest trial per arm — minima
   are robust against scheduler noise on shared CI machines.

   Writes BENCH_telemetry.json: per-arm seconds, overhead percentages,
   and the span/record volume of an instrumented run. *)

open Rox_workload
open Bench_common

let time_arm ~reps run_once =
  (* One warmup run per arm keeps allocator/cache state comparable, and
     an empty minor heap keeps one arm from billing GC debt to the next. *)
  run_once ();
  Gc.minor ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    run_once ()
  done;
  Unix.gettimeofday () -. t0

let run ?(full = false) () =
  header "Telemetry overhead: fig5 workload — off vs spans+metrics vs recorder";
  let scale = if full then 100 else 10 in
  let venues = List.map Dblp.find_venue [ "VLDB"; "ICDE"; "ICIP"; "ADBIS" ] in
  let ctx = load_dblp ~scale venues in
  let compiled = compile_combo ctx venues in
  (* Long arms: each timed arm runs ~100ms so the 2-3% gates sit well
     above scheduler jitter on shared CI machines. *)
  let reps = if full then 60 else 120 in
  let trials = 7 in
  let run_off () =
    ignore (Rox_core.Optimizer.run (Rox_core.Session.create ()) compiled)
  in
  let merged = Rox_telemetry.Metrics.create () in
  let last_sink = ref (Rox_telemetry.Sink.null ()) in
  let session_on () =
    (* Fresh sink per query, merged post-run — the serving pattern. *)
    (match Rox_telemetry.Sink.enabled !last_sink, !last_sink with
     | true, s ->
       Rox_telemetry.Metrics.add_into ~into:merged (Rox_telemetry.Sink.metrics s)
     | false, _ -> ());
    let sink = Rox_telemetry.Sink.create ~enabled:true () in
    last_sink := sink;
    Rox_core.Session.create ~telemetry:sink ()
  in
  let run_on () = ignore (Rox_core.Optimizer.run (session_on ()) compiled) in
  (* The recorder arm is the telemetry-on pattern plus everything a
     served request pays the flight recorder for: trace-id assignment,
     the ring append, the adaptive-threshold retention decision (and the
     retain itself when it fires), and the tenant series. *)
  let recorder = Rox_telemetry.Recorder.create () in
  let query_text = "bench fig5 author chain" in
  let run_rec () =
    let session = session_on () in
    let t0 = Rox_telemetry.Clock.now_ns () in
    let result = Rox_core.Optimizer.run session compiled in
    ignore
      (Rox_core.Session.flight_record session recorder ~query:query_text
         ~plan:result.Rox_core.Optimizer.edge_order
         ~latency_ns:(Rox_telemetry.Clock.elapsed_ns t0) ~status:"ok"
        : Rox_telemetry.Recorder.record)
  in
  let best_off = ref infinity
  and best_on = ref infinity
  and best_rec = ref infinity in
  let rec_deltas = ref [] in
  for trial = 1 to trials do
    (* Alternate the arm order so slow drift (heap growth, CPU thermal
       state) cannot systematically bill one arm. *)
    let off = ref 0.0 and on = ref 0.0 and rc = ref 0.0 in
    let arms =
      [ (off, run_off); (on, run_on); (rc, run_rec) ]
    in
    let arms = if trial mod 2 = 0 then List.rev arms else arms in
    List.iter (fun (slot, f) -> slot := time_arm ~reps f) arms;
    best_off := Float.min !best_off !off;
    best_on := Float.min !best_on !on;
    best_rec := Float.min !best_rec !rc;
    rec_deltas := ((!rc -. !on) /. !on *. 100.0) :: !rec_deltas;
    Printf.printf "trial %d: off %.3fs  on %.3fs  recorder %.3fs (%d runs each)\n%!"
      trial !off !on !rc reps
  done;
  let overhead_pct = (!best_on -. !best_off) /. !best_off *. 100.0 in
  (* The recorder gate compares the *paired* per-trial deltas and takes
     their median: the two arms run adjacently inside each trial, so
     whole-trial noise (CPU frequency, a neighbour's burst) cancels in
     the pair, and the median shrugs off the odd disturbed trial that a
     min-vs-min comparison would let poison one side. *)
  let recorder_pct =
    let sorted = List.sort compare !rec_deltas in
    List.nth sorted (List.length sorted / 2)
  in
  let spans_per_run = Rox_telemetry.Sink.span_count !last_sink in
  Printf.printf "\nbest of %d trials: off %.3fs, on %.3fs — overhead %+.2f%%\n"
    trials !best_off !best_on overhead_pct;
  Printf.printf
    "recorder arm: %.3fs — %+.2f%% over telemetry-on (median paired delta)\n"
    !best_rec recorder_pct;
  Printf.printf "instrumented run: %d span(s), %d dropped\n" spans_per_run
    (Rox_telemetry.Sink.dropped !last_sink);
  Printf.printf
    "recorder: %d record(s), %d dropped, %d trace(s) retained, \
     threshold %dns\n"
    (Rox_telemetry.Recorder.records recorder)
    (Rox_telemetry.Recorder.dropped recorder)
    (Rox_telemetry.Recorder.retained_count recorder)
    (Rox_telemetry.Recorder.threshold_ns recorder);
  let target = 3.0 in
  let recorder_target = 2.0 in
  let within = overhead_pct < target in
  let within_recorder = recorder_pct <= recorder_target in
  if not within then
    Printf.printf "note: above the %.0f%% target — rerun on a quiet machine\n" target;
  if not within_recorder then
    Printf.printf
      "note: recorder arm above the %.0f%% target — rerun on a quiet machine\n"
      recorder_target;
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  %s,\n" (Bench_common.machine_json ~domains_used:1));
  Buffer.add_string buf (Printf.sprintf "  \"workload\": \"fig5 dblp x%d\",\n" scale);
  Buffer.add_string buf (Printf.sprintf "  \"runs_per_trial\": %d,\n" reps);
  Buffer.add_string buf (Printf.sprintf "  \"trials\": %d,\n" trials);
  Buffer.add_string buf (Printf.sprintf "  \"telemetry_off_s\": %.4f,\n" !best_off);
  Buffer.add_string buf (Printf.sprintf "  \"telemetry_on_s\": %.4f,\n" !best_on);
  Buffer.add_string buf (Printf.sprintf "  \"recorder_s\": %.4f,\n" !best_rec);
  Buffer.add_string buf (Printf.sprintf "  \"overhead_pct\": %.2f,\n" overhead_pct);
  Buffer.add_string buf
    (Printf.sprintf "  \"recorder_overhead_pct\": %.2f,\n" recorder_pct);
  Buffer.add_string buf (Printf.sprintf "  \"spans_per_run\": %d,\n" spans_per_run);
  Buffer.add_string buf
    (Printf.sprintf "  \"records\": %d,\n" (Rox_telemetry.Recorder.records recorder));
  Buffer.add_string buf
    (Printf.sprintf "  \"traces_retained\": %d,\n"
       (Rox_telemetry.Recorder.retained_count recorder));
  Buffer.add_string buf (Printf.sprintf "  \"target_pct\": %.1f,\n" target);
  Buffer.add_string buf
    (Printf.sprintf "  \"recorder_target_pct\": %.1f,\n" recorder_target);
  Buffer.add_string buf (Printf.sprintf "  \"within_target\": %b,\n" within);
  Buffer.add_string buf
    (Printf.sprintf "  \"within_recorder_target\": %b\n" within_recorder);
  Buffer.add_string buf "}\n";
  let path = "BENCH_telemetry.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path
