module D = Diagnostic
module Recorder = Rox_telemetry.Recorder

(* A retained trace is a sink snapshot rendered by
   [Sink.snapshot_timeline], so the RX401/RX402 discipline Telemetry_check
   enforces on live sinks must hold on it too; a violation means the
   snapshot or its rendering is broken. *)
let check_trace add (trace_id, _record, _reason, spans) =
  List.iter
    (fun (d : D.t) ->
      add
        (D.of_code "RX702" d.D.location
           ~hint:"retain a Sink.snapshot of the request's own sink"
           (Printf.sprintf "retained trace %d: %s" trace_id d.D.message)))
    (Telemetry_check.check_timeline spans)

let check ?submitted recorder =
  let out = ref [] in
  let add d = out := d :: !out in
  (match submitted with
   | Some n ->
     let records = Recorder.records recorder in
     if records <> n then
       add
         (D.of_code "RX701" D.Graph_loc
            ~hint:
              "every submit_async outcome (executed or rejected — \
               including shutdown-drained leftovers) must record exactly \
               once; take the snapshot at quiescence"
            (Printf.sprintf
               "%d flight record(s) observed for %d submitted request(s)"
               records n))
   | None -> ());
  List.iter (check_trace add) (Recorder.traces recorder);
  let count = Recorder.tenant_count recorder in
  let cap = Recorder.tenant_cap in
  if count > cap + 1 then
    add
      (D.of_code "RX703" D.Graph_loc
         ~hint:
           "past tenant_cap distinct tenants every new client_id must fold \
            into the shared overflow bucket"
         (Printf.sprintf
            "%d tenant series for tenant_cap %d (bound is tenant_cap + 1 \
             including the overflow bucket)"
            count cap));
  List.rev !out
