(** Process-level metrics aggregate for the multi-domain server.

    Sessions (and their sinks) are single-domain values; the server runs
    one session per request on its worker domains. The aggregate is the
    one place their metrics meet: one {!Metrics.t} behind one mutex.
    {!absorb} merges a session's registry into it, and readers get a
    private copy. Per-domain metrics must sum exactly to the aggregate —
    the 2-domain test in [test/suite_telemetry.ml] pins that down.

    Every {!absorb} also increments the aggregate's [aggregate_merges]
    counter, so a snapshot reports how many per-session registries were
    merged in. *)

type t

val create : unit -> t

val absorb : t -> Metrics.t -> unit
(** Add a session's registry into the aggregate under its mutex (safe
    from any domain). The session registry is not modified and may be
    absorbed only once unless double counting is intended. *)

val with_metrics : t -> (Metrics.t -> 'a) -> 'a
(** Run [f] on a snapshot copied under the mutex while domains may still
    be serving. The snapshot is private to the caller: mutating it does
    not write back into the aggregate. *)
