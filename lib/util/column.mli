(** Immutable int column — the unit of materialized storage.

    A column is a read-only view into an int array that is promised never
    to mutate after construction. Slices and full-view reads are
    zero-copy. The [sorted] flag means *strictly increasing* (sorted and
    duplicate-free — the document-order contract of node sequences); it is
    trusted by kernels and audited by the operator-contract sanitizer
    (RX305) when [ROX_SANITIZE=1]. *)

type t

val empty : t

val of_array : int array -> t
(** Copies the array; detects the sorted flag with one scan. *)

val unsafe_of_array : sorted:bool -> int array -> t
(** Wraps without copying or scanning. The caller promises the array is
    never mutated afterwards and that [sorted] is honest. *)

val unsafe_of_array_detect : int array -> t
(** Wraps without copying; detects the sorted flag with one scan. The
    caller promises the array is never mutated afterwards. *)

val length : t -> int
val is_empty : t -> bool

val sorted : t -> bool
(** The trusted flag: strictly increasing. [false] is always safe. *)

val get : t -> int -> int

val slice : t -> pos:int -> len:int -> t
(** Zero-copy sub-view; inherits the sorted flag. *)

val to_array : t -> int array
(** Always a fresh copy — safe to mutate. *)

val read : t -> int array
(** Zero-copy when the view covers its whole storage (the common case),
    else a copy. Callers must not mutate the result. *)

val iter : (int -> unit) -> t -> unit
val iteri : (int -> int -> unit) -> t -> unit
val fold_left : ('a -> int -> 'a) -> 'a -> t -> 'a

val equal : t -> t -> bool
(** Element-wise, monomorphic — no polymorphic compare. *)

val same_storage : t -> t -> bool
(** Physical identity of the underlying arrays. *)

val hash : t -> int
(** A cheap content hash for in-memory keys: columns that are {!equal}
    hash equal. Not collision-resistant — confirm a match with {!equal}. *)

val storage_bytes : t -> int
(** Bytes of the underlying storage (count shared storage once). *)

val mem : t -> int -> bool
(** Binary search when sorted, linear scan otherwise. *)

val flag_honest : t -> bool
(** [true] iff a set sorted flag matches reality (an unset flag is
    merely conservative, never a lie). *)

val sorted_dedup : t -> t
(** Sorted duplicate-free values; zero-copy when already sorted. *)

val semijoin : marks:Bytes.t -> t -> t -> t
(** [semijoin ~marks table c] keeps the entries of [table] that occur in
    [c], in table order, without sorting: O([length c + length table]).
    When every value of [c] occurs in [table] this equals
    [sorted_dedup c]; when nothing is dropped it is [table] itself.
    [marks] is scratch: it must be all zero on entry, is all zero again on
    return — by exception too — and should be longer than the largest
    value of [table]
    (entries beyond it are dropped).
    @raise Invalid_argument when [table]'s sorted flag is unset. *)

val pp : Format.formatter -> t -> unit
