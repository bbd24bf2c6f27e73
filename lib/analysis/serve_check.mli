(** RX6xx soundness checks over the serving front-end's audit counters.

    The server ([Rox_serve.Server]) cannot be a dependency of this library
    (the analysis layer sits below it), so the contract is a plain record
    of audit counts the server produces at quiescence — after its workers
    joined and every submitted request was answered. [Rox_serve] re-exports
    {!check} as its self-audit; [rox serve --smoke] and the serve test
    suite fail on any diagnostic. *)

type counts = {
  sv_requests : int;    (** protocol frames parsed *)
  sv_responses : int;   (** protocol replies written *)
  sv_submitted : int;   (** QUERY requests admitted to the serving path *)
  sv_executed : int;    (** requests a worker executed (ok or error reply) *)
  sv_coalesced : int;
      (** always 0, and read by no check: the server executes every
          admitted request. It stays only because the regression
          benchmark under [perfbench/] reads it. *)
  sv_rejected : int;    (** requests bounced off the full admission queue *)
}

val check : counts -> Diagnostic.t list
(** Verify one quiescent audit snapshot:
    - RX601 — [sv_responses > sv_requests]: a reply without a parsed frame;
    - RX603 — [sv_submitted <> sv_executed + sv_rejected]: a request
      was dropped or double-served. *)
