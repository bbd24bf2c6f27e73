(** The ROX run-time optimizer — Algorithm 1.

    Phase 1 initializes samples and cardinalities of every index-selectable
    vertex and weights every edge with at least one sampled endpoint by
    cut-off sampled execution. Phase 2 alternates chain sampling
    (Algorithm 2) with the execution of the winning path segment, fully
    materializing results and re-sampling the weights of edges incident to
    every vertex whose table shrank — the re-sampling (rather than
    independence-scaling) that makes ROX robust to correlations. Only live
    vertices are re-sampled (see {!Rox_joingraph.Runtime}): a vertex whose
    last edge has run is read by no later estimate.

    Phase 2 is an order policy over {!Driver}: the same loop, span,
    events and accounting as every baseline. Every entry point takes the
    owning {!Session} explicitly: options, RNG, telemetry sink, counter,
    cache and budgets all come from it. Ablation switches (the design
    choices benchmarked in [bench/main.ml]) live in {!Session.config}:
    - [use_chain = false] — greedy smallest-weight-edge execution, no
      look-ahead;
    - [resample = false] — weights are never refreshed after Phase 1 (the
      independence assumption a classical optimizer is stuck with). *)

type result = Driver.result = {
  runtime : Rox_joingraph.Runtime.t;
  relation : Rox_joingraph.Relation.t;
  edge_order : int list;
  edge_rows : (int * int) list;
  counter : Rox_algebra.Cost.counter;
}
(** {!Driver.result}, re-exported with its fields. *)

val run : Session.t -> Rox_xquery.Compile.compiled -> result
(** One optimized run under [session].
    @raise Rox_algebra.Cost.Budget_exceeded when a session budget
    (deadline or sampled rows) runs out mid-run. *)

val answer : Session.t -> Rox_xquery.Compile.compiled -> int array * result
(** Run and apply the π/δ/τ tail: the query answer as return-vertex nodes
    in XQuery order. *)

val run_default : Rox_xquery.Compile.compiled -> result
(** Thin wrapper: a fresh default session per call ([Session.create ()]). *)

val answer_default : Rox_xquery.Compile.compiled -> int array * result
