(** Per-session telemetry sink: nestable monotonic-clock spans plus the
    session's {!Metrics.t} registry.

    The overhead contract: a *disabled* sink costs one boolean test per
    {!with_span} — no clock reads, no allocation inside the sink (callers
    hoist or accept their own closure allocations; attribute thunks are
    never evaluated). An *enabled* sink costs two clock reads and one
    bounded-buffer cons per span. The buffer is capped; spans past the cap
    are counted (and surface as an explicit truncation marker in the
    exporters and an RX404 diagnostic) rather than growing without bound.

    A sink is single-domain state, exactly like the session that owns it:
    share the {!Aggregate}, never a sink. *)

type span = {
  name : string;
  start_ns : int64;   (** monotonic clock at open *)
  dur_ns : int64;
  depth : int;        (** enclosing-span count at open; 0 = root *)
  lane : int;         (** always 0: every span belongs to the owner's call tree *)
  attrs : (string * string) list;
}

type t

val default_cap : int
(** 65536 spans (a few MB at worst) — generous for any single query. *)

val create : ?cap:int -> enabled:bool -> unit -> t
(** A fresh sink with a fresh {!Metrics.t}. *)

val null : unit -> t
(** A disabled sink — the default every config record reaches for. *)

val enabled : t -> bool
val metrics : t -> Metrics.t

val with_span :
  t ->
  ?attrs:(unit -> (string * string) list) ->
  ?record:(Metrics.t -> int -> unit) ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span t name f] times [f] as one span. Disabled: exactly [f ()].
    Enabled: the span closes (and [record metrics dur_ns] fires, and
    [attrs] is evaluated) even when [f] raises — budget aborts unwind
    through well-nested spans. [record] is where call sites feed latency
    histograms without a second clock read. *)

val spans : t -> span list
(** In completion order (a child precedes its parent). *)

val spans_chronological : t -> span list
(** Sorted by start time, parents before children — the order exporters
    and the RX401 nesting check want. *)

val span_count : t -> int
val dropped : t -> int
(** Spans discarded because the buffer was full. *)

val depth : t -> int
(** Currently open spans (0 when no span is live — tests use this to
    assert exception-safety of {!with_span}). *)

val reset : t -> unit
(** Clear spans and the dropped count; metrics are left alone. *)
