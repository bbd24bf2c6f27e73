module D = Diagnostic
module Sink = Rox_telemetry.Sink
module Recorder = Rox_telemetry.Recorder

let span_end (s : Sink.span) = Int64.add s.Sink.start_ns s.Sink.dur_ns

(* Same interval discipline Telemetry_check enforces on live sinks
   (RX401/RX402), applied to a retained tree: spans must nest or be
   disjoint, and no span runs backwards. Retention stores
   [Sink.spans_chronological] output verbatim, so any violation here
   means the tree was corrupted between sampling and retention. *)
let check_trace add (trace_id, _record, _reason, spans) =
  let stack = ref [] in
  List.iteri
    (fun idx (s : Sink.span) ->
      if s.Sink.dur_ns < 0L then
        add
          (D.of_code "RX702" (D.Span idx)
             (Printf.sprintf
                "retained trace %d: span %S has negative duration %Ldns"
                trace_id s.Sink.name s.Sink.dur_ns));
      let rec pop () =
        match !stack with
        | (_, top) :: rest
          when Int64.compare (span_end top) s.Sink.start_ns <= 0 ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
       | [] -> ()
       | (pidx, parent) :: _ ->
         if Int64.compare (span_end s) (span_end parent) > 0 then
           add
             (D.of_code "RX702" (D.Span idx)
                ~hint:
                  "retain must store Sink.spans_chronological output \
                   unmodified"
                (Printf.sprintf
                   "retained trace %d: span %S (start %Ld, end %Ld) overlaps \
                    span #%d %S (end %Ld) without nesting inside it"
                   trace_id s.Sink.name s.Sink.start_ns (span_end s) pidx
                   parent.Sink.name (span_end parent))));
      stack := (idx, s) :: !stack)
    spans

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
  let cap = Recorder.tenant_cap recorder in
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
