(** Value-based equi-joins between text / attribute node sequences.

    XQuery general comparisons such as [$a/@person = $b/@id] or
    [$a1/text() = $a2/text()] become relational equi-join edges in the Join
    Graph. Two physical algorithms, per Table 1:

    - {!iter_index_nl}: nested-loop with an inner *value-index* lookup —
      the zero-investment algorithm ROX samples with (Section 2.3);
    - {!iter_hash}: classic build-probe hash join (build side = inner) —
      *not* zero-investment, used only for full edge execution.

    All variants enumerate (outer, inner) node pairs through a callback
    [f cidx outer_node inner_node], with {!iter_index_nl} guaranteed to be
    grouped by ascending outer index (cut-off compatible). *)

open Rox_storage

type inner_side =
  | Inner_text
  | Inner_attr of int  (** attribute name id *)

type inner_spec = {
  docref : Engine.docref;
  side : inner_side;
  restrict : Rox_util.Column.t option;
      (** When the inner vertex already has a materialized (reduced) table,
          index hits are filtered against it. *)
}

val iter_index_nl :
  ?meter:Cost.meter ->
  outer_doc:Rox_shred.Doc.t ->
  outer:Rox_util.Column.t ->
  inner:inner_spec ->
  (int -> int -> int -> unit) ->
  unit

val iter_hash :
  ?meter:Cost.meter ->
  outer_doc:Rox_shred.Doc.t ->
  outer:Rox_util.Column.t ->
  inner_doc:Rox_shred.Doc.t ->
  inner:Rox_util.Column.t ->
  (int -> int -> int -> unit) ->
  unit
