(** The ROX run-time optimizer — Algorithm 1.

    Phase 1 initializes samples and cardinalities of every index-selectable
    vertex and weights every edge with at least one sampled endpoint by
    cut-off sampled execution. Phase 2 alternates chain sampling
    (Algorithm 2) with the execution of the winning path segment, fully
    materializing results and re-sampling the weights of edges incident to
    every vertex whose table shrank — the re-sampling (rather than
    independence-scaling) that makes ROX robust to correlations.

    Every entry point takes the owning {!Session} explicitly: options,
    RNG, telemetry sink, counter, cache and budgets all come from it, and the whole
    run executes inside {!Session.confine} — armed deadline, RX504
    confinement record. Ablation switches (the design choices benchmarked in
    [bench/main.ml]) live in {!Session.config}:
    - [use_chain = false] — greedy smallest-weight-edge execution, no
      look-ahead;
    - [resample = false] — weights are never refreshed after Phase 1 (the
      independence assumption a classical optimizer is stuck with);
    - [grow_cutoff = false] — chain sampling keeps a fixed cut-off τ. *)

type result = {
  state : State.t;
  relation : Rox_joingraph.Relation.t;  (** fully joined non-root relation *)
  edge_order : int list;                (** execution order (edge ids) *)
  edge_rows : (int * int) list;
      (** (edge id, component rows after executing it) in execution order —
          the per-edge intermediate result sizes behind Figure 5. *)
  counter : Rox_algebra.Cost.counter;   (** the session's counter *)
}

val run_graph :
  Session.t -> Rox_storage.Engine.t -> Rox_joingraph.Graph.t -> result
(** One optimized run of [graph] under [session].
    @raise Rox_algebra.Cost.Budget_exceeded when a session budget
    (deadline or sampled rows) runs out mid-run. *)

val run : Session.t -> Rox_xquery.Compile.compiled -> result

val answer : Session.t -> Rox_xquery.Compile.compiled -> int array * result
(** Run and apply the π/δ/τ tail: the query answer as return-vertex nodes
    in XQuery order. *)

val run_default : Rox_xquery.Compile.compiled -> result
(** Thin wrapper: a fresh default session per call ([Session.create ()]). *)

val answer_default : Rox_xquery.Compile.compiled -> int array * result
