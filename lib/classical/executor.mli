(** Fixed-plan executor.

    Executes a Join Graph in a *given* edge order as a static order policy
    over {!Rox_core.Driver} — the same loop, operators, cost accounting,
    span and events as ROX — but with no sampling and no adaptation. This
    is the workhorse behind every non-ROX plan class of Figures 5–7
    (smallest, largest, classical, and the canonical step placements of
    the ROX join order). The session supplies the counter, the max-rows
    guard, the sanitize mode, the cache handle and the deadline. *)

type result = Rox_core.Driver.result = {
  runtime : Rox_joingraph.Runtime.t;
  relation : Rox_joingraph.Relation.t;
  edge_order : int list;
  edge_rows : (int * int) list;
  counter : Rox_algebra.Cost.counter;
}
(** {!Rox_core.Driver.result}, re-exported with its fields. *)

val execute :
  Rox_core.Session.t ->
  outputs:int array ->
  Rox_storage.Engine.t ->
  Rox_joingraph.Graph.t ->
  Rox_joingraph.Edge.t list ->
  result
(** The order must cover every non-trivial edge exactly once (trivial
    root-descendant edges, and edges already implied by executed
    equi-joins, may be included; they are skipped).
    @raise Rox_core.Driver.Plan_error on malformed orders.
    @raise Rox_joingraph.Runtime.Blowup when materialization explodes.
    @raise Rox_algebra.Cost.Budget_exceeded past the session deadline. *)

val join_rows : Rox_joingraph.Graph.t -> result -> int
(** Σ component rows over equi-join edges only — the "cumulative
    (intermediate) join result cardinality" of Figure 5. *)

val answer :
  Rox_core.Session.t ->
  Rox_xquery.Compile.compiled ->
  Rox_joingraph.Edge.t list ->
  int array * result
(** Execute and apply the query tail. *)

val execute_default :
  outputs:int array ->
  Rox_storage.Engine.t ->
  Rox_joingraph.Graph.t ->
  Rox_joingraph.Edge.t list ->
  result
(** Thin wrapper: a fresh default session per call. *)

val answer_default :
  Rox_xquery.Compile.compiled -> Rox_joingraph.Edge.t list -> int array * result
