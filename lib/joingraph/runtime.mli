(** Shared Join Graph execution state: vertex tables + materialized
    components.

    Every strategy — ROX, greedy, static and enumerated plans, mid-query
    re-optimization — executes edges through this module from one loop
    ([Rox_core.Driver]), so all measure the very same operator work: plans
    differ only in edge *order* and sampling, exactly the comparison of
    Section 4.

    The runtime tracks, per vertex, the materialized table T(v) (initially
    unset; initialized from the best index when an incident edge first
    executes — Algorithm 1, lines 8–12), and per already-executed connected
    subgraph a fully joined {!Relation}. Executing an edge creates,
    extends, fuses or filters components and semijoin-reduces the table
    of every live vertex whose column the edge rebuilt; a column the
    kernel carried unchanged keeps its table.

    A vertex is {e live} while it is one of the query's output vertices
    (the plan tail's for-bound and returned vertices) or still has an
    un-executed incident edge. Components carry only live columns: the
    kernel that builds a component leaves out (never gathers) the column
    of a vertex the edge makes dead, its T(v) is no longer refreshed, and
    {!exec_info.changed} never names it. Rows, pairs and every execution
    charge are those of carrying every column. *)

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
      (** cross-query relation cache: {!execute_edge} runs the staircase
          / value join through {!Rox_cache.Store.memo} (keyed by physical
          variant, endpoint identities and input table contents), which
          counts and emits the lookup and
          cross-checks hits under [sanitize]. Component maintenance and
          semijoin reduction always run — only the physical join itself
          is elided on a hit. *)
  table_sampler : (int -> Rox_util.Column.t -> Rox_util.Column.t) option;
      (** [table_sampler vertex domain] may thin a table when it is first
          materialized from its index — the hook behind the approximate
          (sample-driven) execution mode of Section 6. Tables refreshed
          from executed relations are never re-sampled. *)
  telemetry : Rox_telemetry.Sink.t;
      (** the session's telemetry sink: {!execute_edge} runs under an
          ["execute_edge"] span carrying an [("edge", id)] attribute and
          feeds the edge-latency histogram; with a cache, the relation
          lookup's hit/miss counter and [Cache_lookup] event land inside
          that span.
          The null sink (see {!default_config}) costs one boolean test. *)
}

val default_config : unit -> config
(** 50M-row guard, no cache, no sampler, null telemetry, sanitize =
    {!Rox_algebra.Sanitize.env_default}. Sessions always build their
    config explicitly. *)

val create : ?config:config -> outputs:int array -> Engine.t -> Graph.t -> t
(** One runtime per query run. Sessions pass the per-query [config]
    explicitly; omitting it takes {!default_config} (direct/test use).
    [outputs] are the vertices the final relation's consumer reads — the
    plan tail's key and return vertices ({!Rox_xquery.Tail.outputs}); a
    caller without a tail passes {!Graph.vertex_ids}. *)

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

val live : t -> int -> bool
(** The vertex is an output or has an un-executed incident edge. *)

val unexecuted_edges : t -> Edge.t list

val unexecuted_incident : t -> int -> Edge.t list
(** The paper's edges(v): un-executed edges touching the vertex. *)

val all_executed : t -> bool

val table : t -> int -> Rox_util.Column.t option
(** T(v), if materialized. Current for live vertices; a dead vertex keeps
    the table it had when it died. *)

val table_or_domain : t -> int -> Rox_util.Column.t
(** T(v), or the vertex's index domain when not yet materialized — the
    inner input for full or sampled edge evaluation. *)

val ensure_table : t -> int -> Rox_util.Column.t
(** Materialize T(v) from its index domain if unset, and return it. *)

val component : t -> int -> Relation.t option
(** The materialized component holding the vertex, if any: for a live
    vertex, T(v) is the distinct values of its column there. A dead vertex
    has left its component (or is its one remaining column). *)

type exec_info = {
  pair_count : int;      (** operator result pairs *)
  rel_rows : int;        (** rows of the affected component afterwards *)
  changed : int list;    (** live vertices whose T(v) shrank (incl. endpoints) *)
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
    @raise Blowup when the component would exceed [max_rows]; the
    runtime is not used again afterwards. *)

val final_relation : ?meter:Rox_algebra.Cost.meter -> t -> Relation.t
(** The fully joined relation after every edge executed, over the output
    vertices plus one column per component that holds none. Non-root
    vertices never touched by an edge enter as their index domains;
    genuinely disconnected components combine by Cartesian product (the
    Join Graph semantics). *)
