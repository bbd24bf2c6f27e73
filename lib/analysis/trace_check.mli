(** Replay verification of the optimizer's event stream (Algorithm 2).

    Replays [Rox_telemetry.Sink.events] against its Join Graph and verifies
    the run-time discipline the paper prescribes: executed edges exist and
    execute once (RX101/RX102) in contiguous order (RX103) after being
    weighted or chain-chosen (RX104); chain rounds are consecutive with a
    monotonically growing cutoff, and a chain's stop is the one its last
    round's statistics justify — a segment dominates (line 26) exactly
    when the trigger is [stopping_condition] (RX105); rounds carry
    well-formed statistics (RX113); chosen segments form connected paths anchored at the chain
    source (RX106, RX110); trivial edges never execute (RX107); per-edge
    cardinalities respect the relational bounds of the component operation
    performed (RX108); and every non-trivial edge is eventually executed or
    transitively implied by executed equi-joins (RX109, warning).

    A truncated stream is replayed up to its [Truncated] marker; the
    truncation itself is RX404, reported by {!Telemetry_check} over the
    same sink, and explains follow-on findings such as RX109. *)

val check : Rox_joingraph.Graph.t -> Rox_telemetry.Sink.t -> Diagnostic.t list
