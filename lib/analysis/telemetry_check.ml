open Rox_joingraph
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

(* Every Edge_executed trace event must be covered by an "execute_edge"
   telemetry span carrying a matching ("edge", id) attribute — the span
   instrumentation and the deterministic trace describe the same run. *)
let check_edge_coverage add trace spans =
  let span_edges = Hashtbl.create 16 in
  List.iter
    (fun (s : Sink.span) ->
      if s.Sink.name = "execute_edge" then
        match List.assoc_opt "edge" s.Sink.attrs with
        | Some id -> (
          match int_of_string_opt id with
          | Some e ->
            Hashtbl.replace span_edges e (1 + Option.value ~default:0 (Hashtbl.find_opt span_edges e))
          | None -> ())
        | None -> ())
    spans;
  List.iteri
    (fun idx ev ->
      match (ev : Trace.event) with
      | Trace.Edge_executed { edge; _ } ->
        (match Hashtbl.find_opt span_edges edge with
         | Some n when n > 0 -> Hashtbl.replace span_edges edge (n - 1)
         | _ ->
           add
             (D.error "RX403" (D.Event idx)
                ~hint:"Runtime.execute_edge must run under with_span \"execute_edge\""
                (Printf.sprintf
                   "edge e%d executed with no matching telemetry span" edge)))
      | _ -> ())
    (Trace.events trace)

let check ?trace (sink : Sink.t) =
  let out = ref [] in
  let add d = out := d :: !out in
  if Sink.enabled sink then begin
    let spans = Sink.spans_chronological sink in
    check_nesting add spans;
    if Sink.dropped sink > 0 then
      add
        (D.warning "RX404" D.Graph_loc
           ~hint:"raise the cap via Sink.create ?cap to keep every span"
           (Printf.sprintf "span buffer truncated: %d span(s) dropped"
              (Sink.dropped sink)));
    (* Edge coverage is only meaningful on a complete trace; a truncated
       one would report RX403 for edges whose events were dropped. *)
    match trace with
    | Some tr when Trace.dropped tr = 0 && Sink.dropped sink = 0 ->
      check_edge_coverage add tr spans
    | _ -> ()
  end;
  List.rev !out
