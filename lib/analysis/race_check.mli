(** The RX5xx dynamic race detector.

    Replays a {!Rox_util.Accesslog} recording with Eraser-style lockset
    refinement plus vector-clock happens-before (derived from the
    recorded Acquire/Release events — real mutexes and the fork/join
    [hb_publish]/[hb_acquire] tokens both reduce to release/acquire
    clock transfer), and reports:

    - [RX501] (error): a cross-domain access pair on a shared site with
      no happens-before edge and no common lock, at least one side
      unlocked — a manifest data race.
    - [RX502] (warning): every access to a shared site held some lock,
      but no single lock covers all of them and only scheduling ordered
      this interleaving — fragile discipline, no manifest race.
    - [RX504] (error): a [Confined]-kind site (session state) accessed
      by a second domain.

    At most one race diagnostic is reported per site (the first racy
    pair in recording order). *)

val check :
  sites:Rox_util.Accesslog.site_info array ->
  Rox_util.Accesslog.event array ->
  Diagnostic.t list
(** Pure replay of an explicit recording — what the property tests feed
    with synthetic interleavings. *)

val summary :
  sites:Rox_util.Accesslog.site_info array ->
  Rox_util.Accesslog.event array ->
  string
(** One line: event/access/domain/site/lock counts of a recording. *)
