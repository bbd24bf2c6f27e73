(** Chain sampling — Algorithm 2.

    Starting from the smallest-weight un-executed edge, explore the
    branching path segments around its cheaper endpoint breadth-first,
    piping each segment's sampled output into the sampling of its next
    edge. Stop as soon as one segment pi dominates every other pj under
    the stopping condition

      cost(pi) + sf(pi)·cost(pj) ≤ cost(pj)

    (executing pi first can only help pj), and return pi for execution;
    when the neighborhood is exhausted first, pick the winner of the
    symmetric comparison (line 34). The per-round cut-off limit grows by τ
    each round to dilute front-bias accumulation (Section 3.1). *)

type trigger = [ `Stopping_condition | `Exhausted | `Single_edge ]

type result = {
  edges : Rox_joingraph.Edge.t list;  (** segment in discovery order *)
  trigger : trigger;
}

val run : State.t -> result option
(** [None] when no un-executed edges remain. The owning session's
    [grow_cutoff] config decides whether the cut-off grows; [false]
    freezes it at τ (the ablation of the front-bias mitigation).
    Exploration stops after 12 rounds and keeps at most 32 paths per
    round. Checks the session deadline once per round
    ({!Session.check_deadline}). *)
