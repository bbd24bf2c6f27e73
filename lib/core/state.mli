(** ROX optimizer state: the Join Graph knowledge base of Algorithm 1.

    Wraps the shared execution {!Rox_joingraph.Runtime} with the sampling
    side of ROX: per-vertex random samples S(v) and cardinalities card(v)
    and per-edge weights w(e). Everything mutable a run touches — RNG,
    cost counter, telemetry sink, cache — belongs to the owning {!Session}; the
    state only adds the per-graph arrays. *)

open Rox_joingraph

type t

val create : Session.t -> Rox_storage.Engine.t -> Graph.t -> t
(** One state per query run, owned by [session]: the runtime is built from
    {!Session.runtime_config} (max_rows, sanitize mode, cache,
    approximate-mode table sampler), and sampling draws from the session
    RNG and charge the session counter. *)

val session : t -> Session.t
val runtime : t -> Runtime.t
val graph : t -> Graph.t
val tau : t -> int
val rng : t -> Rox_util.Xoshiro.t
val counter : t -> Rox_algebra.Cost.counter
val telemetry : t -> Rox_telemetry.Sink.t
(** The session's sink: spans and the optimizer's events. *)

val sample : t -> int -> Rox_util.Column.t option
(** S(v). *)

val card : t -> int -> float option
(** card(v); [None] while unknown. *)

val refresh_vertex : t -> int -> unit
(** Re-derive S(v) / card(v) from the runtime's current T(v). *)

val init_vertex_from_index : t -> int -> bool
(** Phase-1 initialization (Algorithm 1 lines 1–2): when the vertex is
    index-selectable (root, element, or equality-predicate text/attribute),
    set S(v) and card(v) from an index lookup *without* materializing T(v),
    and return true. The index supplies the count for free; only the
    τ-sample is charged. *)

val weight : t -> Edge.t -> float option
val set_weight : t -> Edge.t -> float -> unit

val min_weight_edge : t -> Edge.t option
(** Un-executed edge of smallest weight (unweighted edges lose against any
    weighted one; among only-unweighted edges, the first). *)

val execution_meter : t -> Rox_algebra.Cost.meter

val cache : t -> Rox_cache.Store.t option

val sampled_cutoff :
  t ->
  Edge.t ->
  outer:Exec.direction ->
  sample:Rox_util.Column.t ->
  inner_table:Rox_util.Column.t option ->
  limit:int ->
  Rox_algebra.Cutoff.t
(** The [↓l(exec(e, S, T))] of Algorithms 1 and 2 with the estimate cache
    in front: identical requests (same edge shape, sample contents, inner
    table and limit, on the same engine epoch) replay the cached
    {!Rox_algebra.Cutoff.t} — across chain rounds and across queries —
    and charge no sampling work. Emits a [Sink.Cache_lookup] event per
    consultation; a hit is cross-checked bit-identical under the session's
    sanitize mode. Without a cache this is exactly [Exec.sampled] charged
    to the sampling meter. *)
