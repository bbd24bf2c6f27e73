(** Cross-query cache of fully materialized edge executions.

    The value is the pair list a staircase or value join produced for one
    edge against concrete endpoint tables — exactly what
    [Rox_joingraph.Exec.full_pairs] returns, stored as its two parallel
    columns ((v1-node, v2-node) orientation). Keys are
    {!Fingerprint.t}s over the edge descriptor and the endpoint table
    contents, so a hit is valid for *any* query that executes the same
    edge shape against the same inputs on the same engine epoch.

    Stored columns are returned as-is; {!Rox_util.Column.t} is immutable
    by construction, so hits share storage with the producer. *)

type value = { left : Rox_util.Column.t; right : Rox_util.Column.t }

type t

val create : budget:int -> unit -> t
(** [budget] in bytes of resident pair data. *)

val find : t -> Fingerprint.t -> value option
val add : t -> Fingerprint.t -> value -> unit

val weight : value -> int
(** The byte weight charged for a value: underlying column storage (shared
    storage counted once) plus entry overhead. *)

val stats : t -> Lru.stats
val clear : t -> unit
