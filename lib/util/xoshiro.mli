(** Deterministic, seedable pseudo-random number generator.

    ROX bases every optimization decision on random samples; experiments must
    nevertheless be reproducible run-to-run. All randomness in the repository
    flows through this splittable generator (xoshiro256** core seeded through
    splitmix64), never through [Stdlib.Random]. *)

type t
(** A generator's state, mutated in place by every draw. Single-owner:
    each RNG stream belongs to one session, and equal seeds on different
    domains are distinct states. *)

val create : int -> t
(** [create seed] makes a fresh generator from a 63-bit seed. Equal seeds
    yield equal streams. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. Used to give
    sub-systems (generator, optimizer, sampler) isolated streams so adding
    draws in one place does not perturb another. *)

val int : t -> int -> int
(** [int t n] draws uniformly from [0, n-1]. [n] must be positive. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [0, 1). *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t n k] draws [min n k] distinct integers from
    [0, n-1], returned sorted ascending. Runs in O(k) expected time for
    k << n (Floyd's algorithm) and O(n) otherwise. *)
