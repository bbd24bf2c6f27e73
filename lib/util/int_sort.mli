(** Monomorphic sorts over [int array]s.

    [Array.sort] reads its array through the generic (float-checking)
    accessors and compares through a closure; these sorts compare at
    [int] directly. Both are bottom-up merge sorts over insertion-sorted
    runs: O(n log n) worst case, O(n) on sorted input, one scratch array
    of length n. *)

val sort : int array -> unit
(** In-place ascending sort. *)

val sort_by : less:(int -> int -> bool) -> int array -> unit
(** In-place stable sort of an index array: [less i j] holds when [i]
    must come before [j]. *)
