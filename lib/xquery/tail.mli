(** The plan tail: π — δ — τ — π (Section 2.1, Figure 1).

    The Join Graph computes the fully joined relation; XQuery's duplicate
    and ordering semantics are restored by a tail that projects onto the
    for-variable node columns, removes duplicate combinations, sorts by
    node identity in for-clause order, and finally projects the returned
    variable (keeping one output node per distinct combination). *)

type spec = {
  key_vertices : int array;
      (** Vertices bound by for-clauses, in clause order — the τ sort key. *)
  return_vertex : int;
}

val outputs : spec -> int array
(** The vertices the tail reads: the key vertices and the return vertex —
    the output vertices of {!Rox_joingraph.Runtime.create}. *)

val apply :
  sanitize:bool ->
  ?meter:Rox_algebra.Cost.meter ->
  spec ->
  Rox_joingraph.Relation.t ->
  int array
(** Returned node sequence (pre ranks of the return vertex's document),
    in XQuery order; duplicates across distinct key combinations are
    preserved, as the semantics demand. *)

val count :
  sanitize:bool ->
  ?meter:Rox_algebra.Cost.meter ->
  spec ->
  Rox_joingraph.Relation.t ->
  int
