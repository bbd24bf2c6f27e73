(** Materialized intermediate results over Join Graph vertices.

    ROX "executes the operations in the Join Graph one by one, fully
    materializing partial results" (Section 1.1). A relation is the joined
    table over the vertices of one already-executed connected subgraph: one
    column per vertex, each cell a node (pre rank) of that vertex's
    document. Executing an edge either creates a fresh binary relation,
    extends one component, fuses two components, or filters a component
    whose endpoints it already spans.

    Storage is column-major — one immutable {!Rox_util.Column.t} per
    vertex, mirroring the MonetDB/XQuery substrate the paper runs on.
    [project] and [of_pairs] move column pointers without copying, and
    so does every kernel whose output rows are exactly its input's rows
    in order: it carries the input's columns (sorted flags included), so
    an unchanged column is physically ([==]) the input's;
    [extend] / [fuse] / [distinct] / [sort_rows] gather through unboxed
    row-index vectors and open-addressing int tables (no polymorphic
    compare, no boxed keys); the trusted [Column.sorted] flag turns
    [distinct] and [sort_rows] into no-ops on document-ordered columns,
    and kernels keep it set where order survives.

    Under [ROX_SANITIZE=1] every kernel is cross-checked bit-for-bit
    against the retained row-major reference {!Naive} (contract RX306)
    and every column's sorted flag is audited (RX305).

    The per-vertex tables T(v) of Algorithm 1 are the distinct values of
    these relations' columns ({!Runtime} derives them without sorting). *)

type t

exception Too_large of int
(** Raised by the constructing operations when [max_rows] is exceeded —
    *before* the oversized relation is fully materialized. The payload is
    the row count reached. *)

val width : t -> int
val rows : t -> int
val vertices : t -> int array
(** Column order. *)

val has_vertex : t -> int -> bool
val singleton : vertex:int -> Rox_util.Column.t -> t
(** One-column relation from a node set (zero-copy). *)

val of_pairs : ?keep:(int -> bool) -> v1:int -> v2:int -> Exec.pairs -> t
(** The pair columns become the relation's columns — zero-copy. *)

val column : t -> int -> Rox_util.Column.t
(** The vertex's column, with duplicates, in row order — zero-copy. *)

val equal : t -> t -> bool
(** Same vertices, same rows in the same order; monomorphic element
    loops, no polymorphic compare. Used by the sanitizer cross-checks. *)

(** The kernels below take the calling session's sanitize mode as
    [~sanitize]; under it each call is cross-checked against {!Naive}
    (RX306).

    [?keep] (here and on {!of_pairs}) names the columns the output
    carries: those of the vertices it accepts, or — when it accepts none —
    the first output column alone, so the row count survives. A column
    left out is never gathered. Without it, every column is kept. *)

val extend :
  sanitize:bool ->
  ?meter:Rox_algebra.Cost.meter ->
  ?max_rows:int ->
  ?keep:(int -> bool) ->
  t -> on:int -> new_vertex:int -> Exec.pairs -> t
(** [extend r ~on ~new_vertex pairs] joins [r] with the pair list on [r]'s
    [on] column (pairs are oriented (on-node, new-node)). Work charged:
    result rows. Takes a hash-free merge path when the [on] column and
    the pairs' left keys are both non-decreasing. When every row of [r]
    matched exactly one pair, [r]'s columns are carried by pointer. *)

val fuse :
  sanitize:bool ->
  ?meter:Rox_algebra.Cost.meter ->
  ?max_rows:int ->
  ?keep:(int -> bool) ->
  t -> t -> on_left:int -> on_right:int -> Exec.pairs -> t
(** Join two components through an edge whose endpoints live one in each:
    pairs oriented (left-component node, right-component node). A side
    whose rows come out exactly once each, in order, is carried by
    pointer. *)

val filter_pairs :
  sanitize:bool ->
  ?meter:Rox_algebra.Cost.meter -> ?keep:(int -> bool) ->
  t -> c1:int -> c2:int -> Exec.pairs -> t
(** Keep rows whose (c1, c2) cell pair appears in the pair list — an edge
    both of whose endpoints are already in the component. *)

val project : sanitize:bool -> t -> int array -> t
(** Restrict to the given vertex columns (in the given order) — pure
    column-pointer selection, no copying. *)

val distinct : sanitize:bool -> ?meter:Rox_algebra.Cost.meter -> t -> t
(** Duplicate row elimination (the δ of the plan tail), keeping the first
    occurrence of each row. Free when any column is strictly increasing. *)

val sort_rows : sanitize:bool -> t -> t
(** Lexicographic row order over the columns — the τ numbering of the plan
    tail sorts by node identity column by column. Free when the first
    column is strictly increasing. *)

val iter_rows : t -> (int array -> unit) -> unit
(** Calls with a scratch row buffer (do not retain). *)

val row_array : t -> int -> int array
(** Fresh copy of one row. *)

val cross :
  sanitize:bool -> ?meter:Rox_algebra.Cost.meter -> ?max_rows:int -> t -> t -> t
(** Cartesian product (needed only when a plan joins two components on an
    edge spanning them — via [fuse] — never blindly; exposed for tests and
    the plan-space enumerator). *)

(** The seed's row-major implementation, retained as the reference the
    columnar kernels are validated against: by the RX306 sanitizer
    cross-check on every kernel call under [ROX_SANITIZE=1], and by the
    property tests. *)
module Naive : sig
  type r = { verts : int array; data : int array; nrows : int }

  val of_relation : t -> r
  val to_relation : r -> t

  val singleton : vertex:int -> int array -> r
  val of_pairs : v1:int -> v2:int -> left:int array -> right:int array -> r

  val extend :
    ?max_rows:int -> r -> on:int -> new_vertex:int -> left:int array -> right:int array -> r

  val fuse :
    ?max_rows:int -> r -> r -> on_left:int -> on_right:int -> pl:int array -> pr:int array -> r

  val filter_pairs : r -> c1:int -> c2:int -> left:int array -> right:int array -> r
  val project : r -> int array -> r
  val distinct : r -> r
  val sort_rows : r -> r
  val cross : ?max_rows:int -> r -> r -> r
end
