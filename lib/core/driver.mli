(** The one execution loop every strategy runs through.

    ROX, greedy, static and enumerated plans and mid-query re-optimization
    differ only in the order they hand edges to this loop (and in the
    sampling ROX does between executions), so their runs are accounted
    identically — the premise of the Section 4 comparisons.

    The driver owns, for one run: the ["query"] span (with the session's
    client tag), {!Session.confine}, the deadline check before asking the
    policy and again before each execution, the execution meter, one
    [Edge_executed] event per edge, the [queries_served] / [budget_aborts]
    counters, the edge order and rows, the coverage check and the final
    relation. A policy only chooses the next edge and observes results. *)

open Rox_joingraph

type policy = {
  next : unit -> Edge.t option;
      (** the next un-executed edge to run, or [None] when done *)
  executed : Edge.t -> Runtime.exec_info -> unit;
      (** called after each execution, before the next [next] *)
}

type result = {
  runtime : Runtime.t;           (** the run's execution state *)
  relation : Relation.t;         (** fully joined non-root relation *)
  edge_order : int list;         (** execution order (edge ids) *)
  edge_rows : (int * int) list;
      (** (edge id, component rows after executing it) in execution order —
          the per-edge intermediate result sizes behind Figure 5. *)
  counter : Rox_algebra.Cost.counter;  (** the session's counter *)
}

exception Plan_error of string
(** The policy stopped before every edge executed, or a static plan
    repeats an edge. *)

val run : Session.t -> (unit -> Runtime.t * policy) -> result
(** [run session setup] calls [setup] inside the span and the confined
    run, then executes [policy.next] edges until it returns [None].
    @raise Plan_error when edges remain unexecuted.
    @raise Rox_joingraph.Runtime.Blowup when materialization explodes.
    @raise Rox_algebra.Cost.Budget_exceeded when a session budget runs
    out mid-run. *)

val answer : Session.t -> Rox_xquery.Compile.compiled -> result -> int array
(** The π/δ/τ tail over [result.relation], charged to the execution
    bucket: the query answer as return-vertex nodes in XQuery order. *)
