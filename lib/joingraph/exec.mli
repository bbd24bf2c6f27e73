(** Edge evaluation: maps Join Graph edges onto the physical operators.

    Both the ROX optimizer and the classical-baseline executor run edges
    through this module, so cost accounting and semantics are identical —
    plans differ only in *order*, exactly as in the paper's experiments.

    Every node-set argument and result is a sorted duplicate-free pre
    array; pair results are parallel arrays oriented as (v1-node,
    v2-node) regardless of the execution direction chosen. *)

open Rox_storage

type direction = From_v1 | From_v2
(** Which endpoint provides the context (outer / sampled) input. *)

val vertex_domain : Engine.t -> Vertex.t -> Rox_util.Column.t
(** The full base node set of a vertex, through the best index: element
    index for elements, value index for equality / range predicates, kind
    or attribute-name index otherwise. Includes the vertex predicate. *)

val index_domain :
  Engine.t -> Vertex.t -> Rox_util.Column.t * Rox_algebra.Staircase.domain option
(** [vertex_domain] together with the descriptor that decides membership
    in it from the document's columns: present for the root, element,
    text and attribute domains, unpredicated or equality-predicated;
    absent for range predicates. *)

val vertex_domain_count : Engine.t -> Vertex.t -> int
(** [Column.length (vertex_domain engine v)] without materializing the
    domain — index lookups expose counts for free (Section 2.2). An
    attribute vertex with a range predicate is the one exception: no
    index counts it, so its domain is filtered. *)

val can_index_init : Vertex.t -> bool
(** Algorithm 1 (lines 1-2, 9-12) initializes only root vertices, elements
    and text/attribute nodes with an equality predicate. *)

type pairs = { left : Rox_util.Column.t; right : Rox_util.Column.t }
(** Parallel columns: [left.(i)] is the v1-side node of pair [i]. The
    sorted flags are detected at construction, so strictly-increasing
    pair columns carry their document-order certificate downstream. *)

val pair_count : pairs -> int

type variant =
  | Step_from of direction
      (** a step whose context is this endpoint's table *)
  | Hash_join  (** an equi-join building its hash table on the smaller side *)
  | Index_nl_from of direction
      (** an equi-join probing the other endpoint's value index from this
          endpoint's table *)
(** The physical variant of one edge execution. {!Runtime} is the one
    module that chooses it; a planner that only counts pairs passes one
    explicitly. *)

val full_pairs :
  sanitize:bool ->
  ?meter:Rox_algebra.Cost.meter ->
  variant:variant ->
  ?t1_domain:Rox_algebra.Staircase.domain ->
  ?t2_domain:Rox_algebra.Staircase.domain ->
  Engine.t ->
  Graph.t ->
  Edge.t ->
  t1:Rox_util.Column.t ->
  t2:Rox_util.Column.t ->
  pairs
(** Complete evaluation of an edge against materialized endpoint tables,
    through [variant] (@raise Invalid_argument when a step variant meets
    an equi-join or the reverse). [?t1_domain] / [?t2_domain] describe an
    input that is still its vertex's untouched {!index_domain}; a step
    whose candidates are described tests membership on the document's
    columns. Under the sanitizer that step is cross-checked against the
    column path (RX306), and a hash join's charge against its
    [|t1| + |t2| + |pairs|] bound. *)

val sampled :
  sanitize:bool ->
  ?meter:Rox_algebra.Cost.meter ->
  Engine.t ->
  Graph.t ->
  Edge.t ->
  outer:direction ->
  sample:Rox_util.Column.t ->
  inner_table:Rox_util.Column.t option ->
  limit:int ->
  Rox_algebra.Cutoff.t
(** Zero-investment cut-off sampled evaluation: the [↓l(exec(e, S, T))] of
    Algorithms 1 and 2. [sample] is a (document-ordered) sample of the
    outer vertex; [inner_table] restricts the inner side to its current
    materialized table, or [None] to use the vertex domain, whose
    {!index_domain} descriptor then decides step membership (cross-checked
    against the column path under [~sanitize], RX306). The result's [out]
    holds inner-side nodes in generation order. *)
