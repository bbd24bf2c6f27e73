(** ROX optimizer state: the Join Graph knowledge base of Algorithm 1.

    Wraps the shared execution {!Rox_joingraph.Runtime} with the sampling
    side of ROX: per-vertex random samples S(v) and cardinalities card(v),
    per-edge weights w(e) and the memo of the query's cut-off sampled
    runs. Everything mutable a run touches — RNG,
    cost counter, telemetry sink, cache — belongs to the owning {!Session}; the
    state only adds the per-graph arrays. *)

open Rox_joingraph

type t

val create : Session.t -> outputs:int array -> Rox_storage.Engine.t -> Graph.t -> t
(** One state per query run, owned by [session]: the runtime is built from
    {!Session.runtime_config} (max_rows, sanitize mode, cache,
    approximate-mode table sampler) over the query's output vertices (see
    {!Runtime.create}), and sampling draws from the session RNG and charge
    the session counter. *)

val session : t -> Session.t
val runtime : t -> Runtime.t
val graph : t -> Graph.t
val tau : t -> int
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

val sampled_cutoff :
  t ->
  Edge.t ->
  outer:Exec.direction ->
  sample:Rox_util.Column.t ->
  inner_table:Rox_util.Column.t option ->
  limit:int ->
  Rox_algebra.Cutoff.t
(** The [↓l(exec(e, S, T))] of Algorithms 1 and 2 with two memos in
    front. First the state's own per-query memo: a request this query
    already made on [e] — same direction and limit, the same inner table
    object (or both the index domain), a sample of equal contents —
    replays the remembered {!Rox_algebra.Cutoff.t}, charges no sampling
    work, opens no span and counts one [sampled_replays] in the sink's
    metrics; under the session's sanitize mode the replay is re-run
    uncharged and checked with {!Rox_cache.Store.verify_replay} (RX304).
    On a miss the estimate cache is consulted through
    {!Rox_cache.Store.memo} (identical requests on the same engine replay
    across queries; each consultation counts a hit or miss and emits one
    [Sink.Cache_lookup] event), and the result is remembered. A charged
    run executes under an ["exec_sampled"] span. Without a cache and
    without a repeat this is exactly [Exec.sampled] charged to the
    sampling meter. *)
