(** Operator-contract sanitizer (debug mode).

    ROX's zero-investment algebra rests on invariants the operators state
    only in comments: node sequences are sorted and duplicate-free in
    document order (the Table 1 contract), operator outputs stay inside
    their input domains, and observed work stays within the Table 1 cost
    formulas. When sanitizing is on the operators re-check those
    postconditions on every call and raise {!Violation} on the first
    breach.

    The sanitize mode is *per-session* state: every instrumented operator
    receives it as a required argument, threaded from the
    [Rox_core.Session] that owns the query or carried by the structure
    (runtime, state) the session configured. No operator can fall back to
    a process-wide mode, so concurrent sessions on separate OCaml domains
    cannot observe each other's setting. {!env_default}, read once from
    the [ROX_SANITIZE] environment variable, is only the value session
    configurations (and planning helpers that run outside a session)
    start from. *)

type contract =
  | Sorted_dedup   (** Table 1's zero-investment node-sequence contract *)
  | Domain_subset  (** operator output stays inside its input domain *)
  | Cost_bound     (** observed work within the Table 1 cost formula *)
  | Cache_consistent
      (** a [Rox_cache] hit replayed a result equal, by the value's own
          equality, to what a fresh execution of the fingerprinted
          operation produces *)
  | Sorted_flag
      (** a {!Rox_util.Column.t} carrying [sorted=true] really is strictly
          increasing — the flag kernels trust for their merge fast paths *)
  | Kernel_equiv
      (** a columnar relation kernel produced a result bit-identical to
          the retained naive row-major reference implementation *)
  | Owner_domain
      (** a session is entered ([Rox_core.Session.confine]) only from
          the domain whose first entry claimed it *)

type violation = {
  op : string;          (** operator, e.g. ["Staircase.join(descendant)"] *)
  contract : contract;  (** the invariant that broke *)
  detail : string;
}

exception Violation of violation

val contract_label : contract -> string

val env_default : bool
(** The sanitize mode the [ROX_SANITIZE] environment variable asks for
    ([unset], [""] and ["0"] mean off), read once at program start. *)

val message : violation -> string

val fail : op:string -> contract:contract -> string -> 'a
(** Raise {!Violation}. *)

val check_sorted_dedup : op:string -> what:string -> int array -> unit
(** Sequence is strictly increasing (sorted, duplicate-free). *)

val check_subset : op:string -> what:string -> domain:int array -> int array -> unit
(** Every element occurs in [domain] (sorted). *)

val check_column_flag : op:string -> what:string -> Rox_util.Column.t -> unit
(** A set sorted flag matches reality ({!Sorted_flag}, RX305). *)

val check_kernel_equiv : op:string -> what:string -> bool -> unit
(** [check_kernel_equiv ~op ~what ok] fails the {!Kernel_equiv} contract
    (RX306) when the caller's comparison of a fast kernel with its
    reference (the row-major relation, a sort, the candidate-column step)
    came back [false]. *)

val check_cost : op:string -> charged:int -> bound:int -> unit
(** Observed work does not exceed the operator's cost-formula bound. *)

val observed : Cost.meter option -> (Cost.meter -> 'a) -> 'a * int
(** [observed meter f] runs [f] against a private meter, forwards the
    charged total to [meter], and returns (result, total). *)
