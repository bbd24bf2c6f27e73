(** Staircase join: the structural join of Section 2.2.

    [Dk/axis(C, S)] pairs a context node sequence [C] with candidate nodes
    [S] (both sorted on pre, duplicate-free; [S] typically comes from an
    element / kind / value index, which encodes the paper's kind-and-name
    restriction) and selects the [s ∈ S] standing in [axis] relation to
    some [c ∈ C].

    Two evaluation modes:

    - {!iter_pairs} enumerates the *pairs* (c, s) in context order — the
      basis both for extending materialized join-graph relations and for
      cut-off sampling (context order makes the reduction factor [f] of
      Section 2.3 well-defined);
    - {!join} returns the duplicate-free, document-ordered [s]-side result
      (the classic staircase output), applying context pruning for the
      containment axes.

    The operator is zero-investment with respect to [C]: work is linear in
    the consumed prefix of [C] plus produced results — never in unseen
    parts of either input — which is what licenses its use under ROX
    sampling (Section 2.3). *)

open Rox_shred

type domain = { kind : Nodekind.t; name : int; value : int }
(** An untouched index domain, described by the document columns that
    decide membership: every node of [kind] whose name id is [name] and
    whose value id is [value], a negative id matching any. *)

val iter_pairs :
  ?meter:Cost.meter ->
  ?domain:domain ->
  doc:Doc.t ->
  axis:Axis.t ->
  context:Rox_util.Column.t ->
  candidates:Rox_util.Column.t ->
  (int -> int -> int -> unit) ->
  unit
(** [iter_pairs ~doc ~axis ~context ~candidates f] calls [f cidx c s] for
    every qualifying pair, grouped by ascending context index [cidx]. The
    callback may raise to stop early (cut-off); partial work is still
    charged to the meter.

    [?domain] describes [candidates] when they are exactly the nodes of
    [doc] it matches (an unrestricted index domain); membership is then
    tested on the document's columns instead of searched in the column,
    with the same pairs, order and charged work. *)

val join :
  sanitize:bool ->
  ?meter:Cost.meter ->
  doc:Doc.t ->
  axis:Axis.t ->
  context:Rox_util.Column.t ->
  Rox_util.Column.t ->
  Rox_util.Column.t
(** [join ~doc ~axis ~context candidates]: duplicate-free document-ordered
    result nodes ([sorted] flag set; the Following axis returns a
    zero-copy slice of the candidates). [~sanitize] selects the
    contract-checking mode. *)

val count :
  ?meter:Cost.meter ->
  doc:Doc.t ->
  axis:Axis.t ->
  context:Rox_util.Column.t ->
  Rox_util.Column.t ->
  int
(** Number of pairs (not distinct results) — the intermediate-result
    cardinality a step contributes. *)
