(** Telemetry timeline verifier (RX4xx).

    A {!Rox_telemetry.Sink.t} holds wall-clock spans and the optimizer's
    events in one buffer; this pass checks its {!Rox_telemetry.Sink.timeline}
    (events included, as zero-duration spans):

    - [RX401] entries are well-nested per sink — as strictly LIFO
      intervals they must nest or be disjoint, never partially overlap;
    - [RX402] no span has a negative duration (a broken monotonic clock
      or a hand-built span);
    - [RX404] (warning) the buffer hit its cap and dropped entries —
      spans or events. This is the one truncation diagnostic; it explains
      follow-on findings (typically RX109) when {!Trace_check} replays the
      same truncated stream.

    A disabled sink vacuously passes: it records nothing to verify. *)

val check : Rox_telemetry.Sink.t -> Diagnostic.t list

val check_timeline : Rox_telemetry.Sink.span list -> Diagnostic.t list
(** RX401/RX402 alone over one chronological span list, as
    [Sink.timeline] returns it — also applied to the flight recorder's
    retained timelines (RX702). *)
