(** A value that can be reached only inside its own mutex's critical
    section.

    [create v] pairs [v] with a fresh mutex and hides both: the type is
    abstract, so the only ways to touch the payload are {!with_lock} and
    {!try_with_lock}, which hand it to a body running under the lock.
    Reading a guarded structure without its lock is a type error, not a
    convention — each shared structure of the engine (a cache's LRU, the
    flight recorder, the server's queue and ledger) lives in one
    [Guarded.t].

    A body must not return the payload (or a mutable part of it) to its
    caller: the type cannot stop that, and the lint's allowlist guard
    strings say which state each structure keeps inside. *)

type 'a t

val create : 'a -> 'a t
(** [create v] guards [v] behind a new mutex. *)

val with_lock : 'a t -> ('a -> 'b) -> 'b
(** Run the body on the payload with the lock held. The lock is released
    however the body exits, exceptions included. Not reentrant: calling
    [with_lock] on the same value from inside its own body fails. *)

val try_with_lock : 'a t -> ('a -> 'b) -> 'b option
(** [None] at once when the lock is busy; otherwise {!with_lock}. *)

val wait : 'a t -> Condition.t -> unit
(** Block on the condition, releasing the guard's lock while blocked.
    Call only inside a body of {!with_lock} on the same value: the lock
    is held again when it returns, so the body re-checks its predicate
    on the payload it already holds. *)
