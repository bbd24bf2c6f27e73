(** Growable array of unboxed integers.

    The shredder, the indices and every physical operator build result node
    sequences incrementally; this vector is the common building block. It
    amortizes growth by doubling and exposes its storage as a plain
    [int array] snapshot when construction is done. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val is_empty : t -> bool
val get : t -> int -> int
val set : t -> int -> int -> unit
val push : t -> int -> unit
val pop : t -> int
(** Removes and returns the last element. @raise Invalid_argument if empty. *)

val clear : t -> unit
val last : t -> int
(** @raise Invalid_argument if empty. *)

val to_array : t -> int array
(** Fresh array copy of the contents. *)

val release : t -> int array
(** The contents, for a builder that is done with the vector: the backing
    array itself when the vector is exactly full, otherwise one trimmed
    copy. The result may share storage with [t], so [t] must not be
    modified afterwards. *)

val of_array : int array -> t
val iter : (int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val append_array : t -> int array -> unit
val sort : t -> unit
(** In-place ascending sort of the live prefix. *)

val sorted_dedup : t -> int array
(** Sorts, removes duplicates, and returns the result (leaves [t] sorted). *)
