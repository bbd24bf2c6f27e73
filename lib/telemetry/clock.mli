(** Monotonic wall-clock time for spans and latency metrics.

    The optimizer's event payloads are deterministic; timestamps are
    not — they measure real elapsed time. All telemetry timestamps
    come from CLOCK_MONOTONIC (via the bechamel stub, an [@@noalloc]
    external), so they never jump on NTP adjustments and cost a few tens
    of nanoseconds per read. Durations are plain [int] nanoseconds — at
    63 bits that wraps after ~292 years of query time, which we accept. *)

val now_ns : unit -> int64
(** Nanoseconds on the monotonic clock. Only differences are meaningful. *)

val elapsed_ns : int64 -> int
(** [elapsed_ns t0] is [now_ns () - t0] as an [int] (nanoseconds). *)

val ms_of_ns : int -> float
(** Nanoseconds to milliseconds, for human rendering. *)

val us_of_ns : int64 -> float
(** Nanoseconds to microseconds — the Chrome trace-event unit. *)
