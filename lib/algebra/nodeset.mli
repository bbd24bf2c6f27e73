(** Operations on node sequences: sorted, duplicate-free [int array]s.

    The ROX state-update step (Algorithm 1, lines 14–17) intersects a
    vertex table with the nodes that survived an edge execution; these are
    the merge-based primitives for that.

    [~sanitize] is the contract-checking mode of the calling session. *)

val intersect : sanitize:bool -> int array -> int array -> int array
val union : sanitize:bool -> int array -> int array -> int array
val difference : sanitize:bool -> int array -> int array -> int array
val mem : int array -> int -> bool
val is_sorted_dedup : int array -> bool
val is_sorted : int array -> bool

val of_unsorted : sanitize:bool -> int array -> int array
(** Sort + dedup a scratch array (copy; input untouched). *)

val equal : int array -> int array -> bool
