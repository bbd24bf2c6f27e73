(** Mid-query re-optimization baseline (Section 5's [24, 25]: Kabra &
    DeWitt's re-optimization, Markl et al.'s progressive optimization).

    A synopsis-driven static plan executes edge by edge; after every edge
    the observed cardinality is compared against the optimizer's
    prediction, and when it falls outside the validity range
    [predicted/f, predicted·f], the remainder of the plan is re-planned
    with the observed table sizes as corrected statistics.

    This is the strongest classical contender the paper discusses — it
    reacts to mis-estimates, but only *after* paying for them, and its
    re-planning still assumes independence. ROX's continuous sampling
    avoids both weaknesses; the benchmark harness compares the three. *)

open Rox_joingraph

val synopsis_order : Rox_storage.Engine.t -> Graph.t -> Edge.t list
(** Static greedy plan from per-document synopses: exact base counts,
    estimated step fan-outs under independence, smallest-input-first for
    cross-document equi-joins. *)

val execute :
  ?validity_factor:float ->
  Rox_core.Session.t ->
  outputs:int array ->
  Rox_storage.Engine.t ->
  Graph.t ->
  Rox_core.Driver.result * int
(** Execute with re-optimization as an order policy over
    {!Rox_core.Driver}; returns the run and how many times the validity
    check fired. [validity_factor] defaults to 5.0. Planning and
    re-planning are uncharged (the paper's convention: optimizer time is
    not operator work); every executed operator is charged to the session
    counter's execution bucket. Every call rebuilds each document's
    {!Synopsis} (nothing caches them). On the three-way XMark join of the
    [xmark-q1] benchmark workload at scale 1.0 (2.9 MB, 2-vCPU Xeon) the
    build takes about 80 ms of an 88 ms answer, against 6 ms for ROX:
    wall-clock comparisons against this baseline carry that planning cost,
    the work-unit ladder does not. *)

val answer :
  ?validity_factor:float ->
  Rox_core.Session.t ->
  Rox_xquery.Compile.compiled ->
  int array * Rox_core.Driver.result * int

val answer_default : Rox_xquery.Compile.compiled -> int array * Rox_core.Driver.result * int
(** Thin wrapper: a fresh default session per call. *)
