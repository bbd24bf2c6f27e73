(** Chain sampling — Algorithm 2.

    Starting from the smallest-weight un-executed edge, explore the
    branching path segments around its cheaper endpoint (the source)
    breadth-first, piping each segment's sampled output into the sampling
    of its next edge (line 12). Each segment p carries I(p), the sampled
    tuples flowing out of its last link, and a scale: the number of
    full-table tuples one tuple of I(p) stands for. The initial scale is
    card(source) / |S(source)|. A link with cut-off result [cut] carries
    [flow = cut.est × scale(p)] tuples, so

      cost(p') = cost(p) + flow     sf(p') = flow / card(source)

    and the next scale is [flow / cut.produced] (0 when nothing was
    produced; sf is 0 for an empty source). Stop as soon as one segment
    pi dominates every other pj under the stopping condition of line 26

      cost(pi) + sf(pi)·cost(pj) ≤ cost(pj)

    (executing pi first can only help pj), and return pi for execution.
    Otherwise settle with the winner of line 34's symmetric comparison
    once no segment can be extended, or once the chain's own sampled
    work — [consumed_outer + produced] of every link it sampled — reaches
    the estimated cost of its cheapest segment: past that point the
    chain spends more than the decision could save. The per-round cut-off
    limit grows by τ each round to dilute front-bias accumulation
    (Section 3.1).

    Exploration terminates without a round or path cap: a segment never
    repeats an edge, so after at most as many rounds as the graph has
    un-executed edges no segment can be extended. It stays bounded: a
    round that does not settle leaves the chain's sampled work below the
    cost of executing its cheapest segment, so the work of every round
    but the last is paid for by what it can still save. The work is
    counted from each link's cut-off result, not from the sampling
    meter, so a memo replay or a cache hit (which charge nothing) cannot
    change the decision: plans do not depend on cache state. *)

type trigger = Rox_telemetry.Metrics.chain_trigger
(** [`Stopping_condition] (line 26), [`Exhausted] (line 34, no segment
    could be extended), [`Cannot_pay] (line 34, the chain's sampled work
    reached its cheapest segment's cost) or [`Single_edge] (no chain:
    the minimum-weight edge has no branching endpoint or no sample). *)

type result = {
  edges : Rox_joingraph.Edge.t list;  (** segment in discovery order *)
  trigger : trigger;
}

val run : State.t -> result option
(** [None] when no un-executed edges remain. Checks the session
    deadline once per round ({!Session.check_deadline}).
    With an enabled sink, each decision counts one [chain_stops] under
    its trigger. *)
