(** Per-session event stream: nestable monotonic-clock spans, the
    optimizer's typed decision events, and the session's {!Metrics.t}
    registry.

    Spans and events share one bounded buffer in arrival order (a span
    arrives when it closes, an event when it is emitted), one cap and one
    dropped count. Entries past the cap are counted — and surface as an
    explicit truncation marker in {!events}, the exporters and an RX404
    diagnostic — rather than growing without bound.

    The overhead contract: a *disabled* sink costs one boolean test per
    {!with_span} or {!emit} — no clock reads, no allocation inside the
    sink (callers hoist or accept their own closure allocations; attribute
    thunks are never evaluated). An *enabled* sink costs two clock reads
    and one cons per span, and one clock read and one cons per event.
    Events are stored typed; they become strings only when a {!timeline}
    is built (an export, or a read of a retained {!snapshot}).

    A sink is single-domain state, exactly like the session that owns it:
    share a merged {!Metrics.t} ({!Metrics.add_into} under the owner's
    lock), never a sink. *)

type span = {
  name : string;
  start_ns : int64;   (** monotonic clock at open *)
  dur_ns : int64;
  depth : int;        (** enclosing-span count at open; 0 = root *)
  lane : int;         (** always 0: every span belongs to the owner's call tree *)
  attrs : (string * string) list;
}

(** {1 Optimizer events}

    The paper's figures narrate ROX's inner life: edge weights after each
    exploration step (Figure 3.2), per-round (cost, sf) pairs of competing
    path segments (Table 2), the final edge execution order (Figures
    3.3/3.4). The optimizer emits these events; the benchmark harness,
    the replay verifier and the exporters read them back. *)

type chain_path = {
  label : string;      (** e.g. "p1" *)
  via : string;        (** first vertex the segment branches through *)
  cost : float;
  sf : float;
}

type event =
  | Vertex_initialized of { vertex : int; card : int }
  | Edge_weighted of { edge : int; weight : float }
  | Chain_started of { source : int; min_edge : int }
  | Chain_round of { round : int; cutoff : int; paths : chain_path list }
  | Chain_chosen of {
      edges : int list;
      trigger : Metrics.chain_trigger;
    }
  | Edge_executed of { edge : int; order : int; pairs : int; rel_rows : int }
  | Cache_lookup of { edge : int; store : [ `Relation | `Estimate ]; hit : bool }
      (** A [Rox_cache] consultation: [`Relation] lookups guard full edge
          executions, [`Estimate] lookups guard cut-off sampled runs.
          Emitted only when a cache store is wired in, so cache-off streams
          are unchanged. *)
  | Truncated of { dropped : int }
      (** The buffer hit its cap and [dropped] later entries (spans or
          events) were discarded. Never passed to {!emit}: synthesized (at
          most once, always last) by {!events} so every consumer sees an
          explicit partial-history marker. *)

type t

val default_cap : int
(** 65536 entries (a few MB at worst) — generous for any single query. *)

val create : ?cap:int -> enabled:bool -> unit -> t
(** A fresh sink with a fresh {!Metrics.t}.
    @raise Invalid_argument when [cap < 1]. *)

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

val emit : t -> event -> unit
(** Record one event, stamped with the clock and the current span depth.
    A disabled sink costs one test; past the cap nothing is stored and no
    clock is read (the drop is counted). *)

val spans : t -> span list
(** Spans only, in completion order (a child precedes its parent). *)

val events : t -> event list
(** Events only, in emission order, with a final {!Truncated} marker iff
    any entry was dropped. *)

val execution_order : t -> int list
(** Edge ids in the order they were executed. *)

val chain_rounds : t -> (int * int * chain_path list) list
(** All (round, cutoff, paths) events — the raw data behind Table 2. *)

val cache_hits : ?store:[ `Relation | `Estimate ] -> t -> int
(** Number of cache hits recorded, optionally for one store only. *)

val cache_lookups : ?store:[ `Relation | `Estimate ] -> t -> int
(** Number of cache consultations recorded (hits + misses). *)

val timeline : t -> span list
(** Spans and events sorted by start time, parents before children — the
    order exporters, retained traces and the RX401 nesting check want.
    Each event appears as a zero-duration span one level below the span
    open when it was emitted, named after its constructor
    (["edge_executed"], ["chain_round"], ...) with its fields as
    attributes. *)

type snapshot
(** The sink's entries as they stand, still typed — what the flight
    recorder keeps for a retained request. *)

val snapshot : t -> snapshot option
(** [None] when the sink holds no entry. Copies the entry spine into one
    array and shares the entries; later entries do not change a snapshot
    already taken, and nothing is formatted until {!snapshot_timeline}. *)

val snapshot_timeline : snapshot -> span list
(** {!timeline} of a snapshot. *)

val span_count : t -> int
(** Spans stored (events not included). *)

val dropped : t -> int
(** Entries — spans and events — discarded because the buffer was full. *)

val depth : t -> int
(** Currently open spans (0 when no span is live — tests use this to
    assert exception-safety of {!with_span}). *)

val reset : t -> unit
(** Clear spans, events and the dropped count; metrics are left alone. *)
