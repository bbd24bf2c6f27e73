(** Cut-off sampled operator execution — the [↓l(OP)] of Section 2.3.

    A sampled operator runs with a (small) outer sample and the full inner
    input, but *stops generating results at limit l*, so its cost stays
    linear in the sample size regardless of join hit ratio. The fraction
    [f] of outer tuples consumed when the cut-off strikes extrapolates the
    full-result cardinality: |r'| = |r| / f (the paper's rowid trick).

    The front-bias this introduces (early outer tuples dominate the sample)
    is accepted exactly as in the paper; chain sampling mitigates it by
    growing the limit per round (Algorithm 2, line 12). *)

type t = {
  out : int array;
      (** Inner-side output nodes in generation order — may contain
          duplicates; feeds the next link of a sampled chain. *)
  produced : int;
  consumed_outer : int;  (** Outer tuples consumed (incl. a partial last). *)
  fraction : float;      (** f: consumed / |outer|; 1.0 when completed. *)
  est : float;           (** Extrapolated full-result pair cardinality. *)
  completed : bool;      (** The operator finished before hitting the limit. *)
}

val run : limit:int -> outer_len:int -> iter:((int -> int -> unit) -> unit) -> t
(** [run ~limit ~outer_len ~iter] drives [iter emit] where the operator
    calls [emit outer_idx inner_node] in ascending [outer_idx] order; [run]
    interrupts it once [limit] results exist. *)

val equal : t -> t -> bool
(** Field by field: the same output sequence, counts, fraction and
    estimate. *)
