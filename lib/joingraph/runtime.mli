(** Shared Join Graph execution state: vertex tables + materialized
    components.

    Both the ROX optimizer and the fixed-plan executor of the classical
    baseline drive edge execution through this module, so both measure the
    very same operator work — plans differ only in edge *order* and
    sampling, exactly the comparison of Section 4.

    The runtime tracks, per vertex, the materialized table T(v) (initially
    unset; initialized from the best index when an incident edge first
    executes — Algorithm 1, lines 8–12), and per already-executed connected
    subgraph a fully joined {!Relation}. Executing an edge creates,
    extends, fuses or filters components and semijoin-reduces every table
    of the affected component. *)

open Rox_storage

type t

exception Blowup of { edge : int; rows : int; limit : int }
(** Raised when an edge execution would materialize more than [max_rows]
    tuples — the runaway-plan guard for the enumeration experiments. *)

type config = {
  max_rows : int;
      (** materialization guard: {!execute_edge} raises {!Blowup} past it *)
  sanitize : bool;
      (** the session's contract-checking mode, threaded into every
          operator this runtime calls *)
  cache : Rox_cache.Store.t option;
      (** cross-query relation cache: {!execute_edge} consults it (keyed
          by physical variant, endpoint identities and input table
          contents, scoped by the engine epoch) before running the
          staircase / value join, and stores fresh results. Component
          maintenance and semijoin reduction always run — only the
          physical join itself is elided on a hit. *)
  table_sampler : (int -> Rox_util.Column.t -> Rox_util.Column.t) option;
      (** [table_sampler vertex domain] may thin a table when it is first
          materialized from its index — the hook behind the approximate
          (sample-driven) execution mode of Section 6. Tables refreshed
          from executed relations are never re-sampled. *)
  telemetry : Rox_telemetry.Sink.t;
      (** the session's telemetry sink: {!execute_edge} runs under an
          ["execute_edge"] span carrying an [("edge", id)] attribute and
          feeds the edge-latency histogram and cache hit/miss counters.
          The null sink (see {!default_config}) costs one boolean test. *)
}

val default_config : unit -> config
(** 50M-row guard, no cache, no sampler, null telemetry, sanitize =
    {!Rox_algebra.Sanitize.default_mode} (hence an RX307 violation inside
    an armed session region — sessions always build their config
    explicitly). *)

val create : ?config:config -> Engine.t -> Graph.t -> t
(** One runtime per query run. Sessions pass the per-query [config]
    explicitly; omitting it takes {!default_config} (direct/test use). *)

val engine : t -> Engine.t
val graph : t -> Graph.t

val is_trivial_edge : Graph.t -> Edge.t -> bool
(** Descendant steps out of a document root are always satisfied ("not
    necessary to execute to produce the correct result", Section 3.2);
    they are marked executed at creation and skipped by every plan. *)

val executed : t -> Edge.t -> bool

val implied : t -> Edge.t -> bool
(** The edge completed for free because it was transitively implied by
    executed equi-joins (a Figure 4 join equivalence). *)

val mark_executed : t -> Edge.t -> unit
val unexecuted_edges : t -> Edge.t list

val unexecuted_incident : t -> int -> Edge.t list
(** The paper's edges(v): un-executed edges touching the vertex. *)

val all_executed : t -> bool

val table : t -> int -> Rox_util.Column.t option
(** T(v), if materialized. *)

val table_or_domain : t -> int -> Rox_util.Column.t
(** T(v), or the vertex's index domain when not yet materialized — the
    inner input for full or sampled edge evaluation. *)

val ensure_table : t -> int -> Rox_util.Column.t
(** Materialize T(v) from its index domain if unset, and return it. *)

type exec_info = {
  pair_count : int;      (** operator result pairs *)
  rel_rows : int;        (** rows of the affected component afterwards *)
  changed : int list;    (** vertices whose T(v) shrank (incl. endpoints) *)
  cache_hit : bool;      (** the physical join was replayed from the cache *)
}

val execute_edge :
  ?meter:Rox_algebra.Cost.meter ->
  t ->
  Edge.t ->
  exec_info
(** Full evaluation of one edge with component maintenance. A step takes
    the smaller known side as context; an equi-join probes a value-indexed
    endpoint by index nested-loop, from the smaller side when both
    qualify, and falls back to a hash join when neither does. Only the
    probing side is materialized and charged (both sides of a hash join).
    @raise Invalid_argument if the edge was already executed.
    @raise Blowup when the component would exceed [max_rows]. *)

val final_relation : ?meter:Rox_algebra.Cost.meter -> t -> Relation.t
(** The fully joined relation over all non-root vertices after every edge
    executed. Vertices never touched by an edge enter as their index
    domains; genuinely disconnected components combine by Cartesian
    product (the Join Graph semantics). *)
