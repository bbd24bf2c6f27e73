(** Open-addressing int -> int hash table: linear probing, power-of-two
    capacity, Fibonacci mixing — no boxing and no polymorphic
    [Hashtbl.hash] on the hot paths.

    [min_int] is the empty-slot sentinel and cannot be used as a key. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int

val set : t -> int -> int -> unit
val find : t -> int -> int option
val mem : t -> int -> bool

val find_default : t -> int -> default:int -> int
(** [find] without the option allocation: the stored value, or
    [default] when absent. *)

val add : t -> int -> unit
(** Set semantics: [add t k] is [set t k 0]. *)

val find_or_add : t -> int -> default:int -> int
(** One-probe find-or-create: the stored value, or [default] after
    inserting it. *)

val iter : (int -> int -> unit) -> t -> unit

val probe_length : t -> int -> int
(** Slots a lookup of the key inspects: 1 when it sits in (or would take)
    its home slot. A diagnostic for the hash's spread. *)

(** Multimap: each key's values replay in insertion order — the columnar
    join kernels depend on that to stay bit-identical to the naive
    row-major reference. *)
module Multimap : sig
  type t

  val create : ?capacity:int -> unit -> t
  val add : t -> int -> int -> unit

  val keys : t -> int
  (** Number of distinct keys. *)

  val iter_key : t -> int -> (int -> unit) -> unit
  (** Values of one key, oldest first. *)

  val mem_pair : t -> int -> int -> bool
end
