(** Exporters: Chrome trace-event JSON, Prometheus text exposition, and
    the human profile summary.

    The Chrome format is the [chrome://tracing] / Perfetto "JSON Array
    with metadata" flavour: an object with a ["traceEvents"] array of
    complete ([ph = "X"]) events, microsecond timestamps relative to the
    earliest span, one [tid] lane per sink. {!validate_chrome} checks
    exactly the schema subset {!chrome_trace} promises — [make
    profile-smoke] parses its emitted file back and runs it, and the
    serve test suite runs it on the retained trace a TRACE reply
    carries. *)

val chrome_trace :
  ?process_name:string -> (int * Sink.t) list -> string
(** [(tid, sink)] pairs become one thread lane each, exported from
    {!Sink.timeline}: spans and the optimizer's events side by side.
    Includes process / thread-name metadata events and, per sink with
    dropped entries, an instant event marking the truncation. *)

val chrome_trace_parts :
  ?process_name:string -> (int * Sink.span list * int) list -> string
(** Same writer over bare parts — [(tid, spans, dropped)] — for span
    lists that have outlived their sink (the flight recorder's retained
    traces). Spans must be in chronological order, as
    [Sink.timeline] returns them; {!chrome_trace} is this
    applied to live sinks. *)

val escape_label : string -> string
(** Prometheus label-value escaping: backslash, double quote and line
    feed each gain a backslash, per the text exposition format.
    Everything emitted inside a label value's quotes — in particular
    client-supplied tenant ids — must pass through this. *)

val histogram_series :
  Buffer.t -> ?label:string * string -> Metrics.histogram -> unit
(** Append [h]'s sample lines: the cumulative [_bucket{le="..."}] ladder
    (log₂ bounds, buckets past the last observation folded into [+Inf]),
    then [_sum] and [_count]. With [label = (key, value)] every line
    carries [key="value"] (the value through {!escape_label}). The one
    histogram writer: {!prometheus} and the flight recorder's per-tenant
    series both print through it. *)

val prometheus : Metrics.t -> string
(** Text exposition format: [# HELP] / [# TYPE] per instrument, counters
    as [_total] (a labelled counter as one [name{key="value"}] line per
    value), histograms as cumulative [_bucket{le="..."}] ladders
    (log₂ bounds, buckets past the last observation folded into [+Inf])
    plus [_sum] and [_count]. *)

val profile : ?work_units:int * int -> Metrics.t -> string
(** The paper-relevant breakdown, for [--profile]: sampling vs execution
    wall-clock side by side with the deterministic work-unit split of
    Figure 8 ([work_units] = (sampling, execution) from the session's
    [Cost.counter]), per-stage latency quantiles, cache hit ratios, and
    span accounting. *)

val validate_chrome : Rox_util.Minijson.t -> (int, string) result
(** Schema check for a parsed Chrome trace: top-level ["traceEvents"]
    array; every event an object with string [name]/[ph]/[cat], numeric
    [ts]/[pid]/[tid]; every ["X"] event a non-negative [dur]; per
    [(pid, tid)] lane the complete events must be well-nested. Returns
    the number of complete events on success. *)
