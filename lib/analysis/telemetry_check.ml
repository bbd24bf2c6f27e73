module D = Diagnostic
module Sink = Rox_telemetry.Sink

(* Spans are wall-clock intervals, so two spans recorded by one sink must
   either nest or be disjoint — the sink is single-domain state and
   [with_span] is strictly LIFO. Clock granularity can make a child share
   its parent's boundary instants, so containment checks are non-strict. *)

let span_end (s : Sink.span) = Int64.add s.Sink.start_ns s.Sink.dur_ns

let check_nesting add spans =
  let stack = ref [] in
  List.iteri
    (fun idx (s : Sink.span) ->
      if s.Sink.dur_ns < 0L then
        add
          (D.error "RX402" (D.Span idx)
             (Printf.sprintf "span %S has negative duration %Ldns" s.Sink.name
                s.Sink.dur_ns));
      (* Pop finished spans: anything that ended before this one started. *)
      let rec pop () =
        match !stack with
        | (_, top) :: rest when Int64.compare (span_end top) s.Sink.start_ns <= 0 ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
       | [] -> ()
       | (pidx, parent) :: _ ->
         (* Still-open enclosing span: this one must fit inside it. *)
         if Int64.compare (span_end s) (span_end parent) > 0 then
           add
             (D.error "RX401" (D.Span idx)
                (Printf.sprintf
                   "span %S (start %Ld, end %Ld) overlaps span #%d %S (end %Ld) \
                    without nesting inside it"
                   s.Sink.name s.Sink.start_ns (span_end s) pidx parent.Sink.name
                   (span_end parent)));
         if s.Sink.depth <= parent.Sink.depth then
           add
             (D.error "RX401" (D.Span idx)
                (Printf.sprintf
                   "span %S at depth %d opens inside span #%d %S at depth %d"
                   s.Sink.name s.Sink.depth pidx parent.Sink.name parent.Sink.depth)));
      stack := (idx, s) :: !stack)
    spans

let check_timeline spans =
  let out = ref [] in
  check_nesting (fun d -> out := d :: !out) spans;
  List.rev !out

let check (sink : Sink.t) =
  if not (Sink.enabled sink) then []
  else
    check_timeline (Sink.timeline sink)
    @
    if Sink.dropped sink = 0 then []
    else
      [ D.warning "RX404" D.Graph_loc
          ~hint:"raise the cap via Sink.create ?cap to keep every entry"
          (Printf.sprintf "telemetry buffer truncated: %d entries dropped"
             (Sink.dropped sink)) ]
