(** User-facing face of the operator-contract sanitizer.

    The low-level hooks live in [Rox_algebra.Sanitize]; the sanitize mode
    is a per-session argument threaded into every operator — zero cost
    when off, which is the default. This module turns violations into
    {!Diagnostic.t} values: RX301 for sorted/duplicate-free breaches,
    RX302 for domain escapes, RX303 for Table 1 cost-bound overruns,
    RX304 for cache replay divergence, RX305 for sorted-flag lies,
    RX306 for kernel/reference divergence and RX504 for a session
    entered from a domain other than its owner. *)

val diagnostic_of_violation :
  ?label:string -> Rox_algebra.Sanitize.violation -> Diagnostic.t

val wrap : ?label:string -> (unit -> 'a) -> ('a, Diagnostic.t) result
(** [wrap f] converts the first {!Rox_algebra.Sanitize.Violation} raised
    by [f] into an error diagnostic. Other exceptions propagate. [f] is
    expected to run under a sanitize-on session of its own. *)
