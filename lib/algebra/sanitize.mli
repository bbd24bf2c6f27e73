(** Operator-contract sanitizer (debug mode).

    ROX's zero-investment algebra rests on invariants the operators state
    only in comments: node sequences are sorted and duplicate-free in
    document order (the Table 1 contract), operator outputs stay inside
    their input domains, and observed work stays within the Table 1 cost
    formulas. When sanitizing is on the operators re-check those
    postconditions on every call and raise {!Violation} on the first
    breach.

    The sanitize mode is *per-session* state: every instrumented operator
    receives it as an explicit parameter (threaded from the
    [Rox_core.Session] that owns the query, or carried by the structure —
    runtime, state — the session configured). The process-wide
    {!default_mode}, initialized once from the [ROX_SANITIZE] environment
    variable, is only the default a session snapshots at construction
    time.

    Confinement (RX307): while a session run is in flight —
    {!confine} marks the current domain — reading process-global mutable
    configuration through {!default_mode} / {!set_default_mode} is itself
    a {!Session_confined} violation when the region is armed. This
    dynamically enforces that no operator on a session's execution path
    falls back to process globals, which is what makes concurrent sessions
    on separate OCaml domains sound. *)

type contract =
  | Sorted_dedup   (** Table 1's zero-investment node-sequence contract *)
  | Domain_subset  (** operator output stays inside its input domain *)
  | Cost_bound     (** observed work within the Table 1 cost formula *)
  | Cache_consistent
      (** a [Rox_cache] hit replayed a result bit-identical to what a
          fresh execution of the fingerprinted operation produces *)
  | Sorted_flag
      (** a {!Rox_util.Column.t} carrying [sorted=true] really is strictly
          increasing — the flag kernels trust for their merge fast paths *)
  | Kernel_equiv
      (** a columnar relation kernel produced a result bit-identical to
          the retained naive row-major reference implementation *)
  | Session_confined
      (** no operator inside a session run reads process-global mutable
          state (cost counters, RNG, sanitize mode) other than through its
          session (RX307) *)

type violation = {
  op : string;          (** operator, e.g. ["Staircase.join(descendant)"] *)
  contract : contract;  (** the invariant that broke *)
  detail : string;
}

exception Violation of violation

val contract_label : contract -> string

val default_mode : unit -> bool
(** The process-default sanitize mode, initialized from [ROX_SANITIZE]
    ([unset], [""] and ["0"] mean off). Sessions snapshot it at
    construction; operators called outside any session default to it.
    Raises {!Violation} ({!Session_confined}) when called inside an armed
    confined region — an operator on a session path must use the mode its
    session handed it. *)

val set_default_mode : bool -> unit
(** Change the process default (tests, analysis drivers). Same confinement
    rule as {!default_mode}. *)

val confine : sanitize:bool -> (unit -> 'a) -> 'a
(** [confine ~sanitize f] runs [f] with the current domain marked as
    inside a session run; [sanitize] arms the {!Session_confined} trap.
    Regions nest; the marker is domain-local, so sessions on other domains
    are unaffected. *)

val confined : unit -> bool
(** Whether the current domain is inside a {!confine} region. *)

val global_read : string -> unit
(** [global_read what] is the RX307 tripwire: call it from any accessor of
    process-global mutable state. Inside an armed confined region it fails
    the {!Session_confined} contract; otherwise it is a no-op. *)

val message : violation -> string

val fail : op:string -> contract:contract -> string -> 'a
(** Raise {!Violation}. *)

val check_sorted_dedup : op:string -> what:string -> int array -> unit
(** Sequence is strictly increasing (sorted, duplicate-free). *)

val check_subset : op:string -> what:string -> domain:int array -> int array -> unit
(** Every element occurs in [domain] (sorted). *)

val check_identical : op:string -> what:string -> int array -> int array -> unit
(** [check_identical ~op ~what cached fresh] fails the {!Cache_consistent}
    contract on the first position where the arrays differ. *)

val check_column_flag : op:string -> what:string -> Rox_util.Column.t -> unit
(** A set sorted flag matches reality ({!Sorted_flag}, RX305). *)

val check_kernel_equiv : op:string -> what:string -> bool -> unit
(** [check_kernel_equiv ~op ~what ok] fails the {!Kernel_equiv} contract
    (RX306) when the caller's columnar-vs-naive comparison came back
    [false]. *)

val check_cost : op:string -> charged:int -> bound:int -> unit
(** Observed work does not exceed the operator's cost-formula bound. *)

val observed : Cost.meter option -> (Cost.meter -> 'a) -> 'a * int
(** [observed meter f] runs [f] against a private meter, forwards the
    charged total to [meter], and returns (result, total). *)
