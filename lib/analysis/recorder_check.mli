(** Flight-recorder verifier (RX7xx).

    Checks the {!Rox_telemetry.Recorder}'s three bounded layers against
    their invariants, at quiescence:

    - [RX701] record accounting: with [?submitted] (the RX603 audit's
      submitted count), every admitted request must have left exactly one
      flight record — executed and rejected requests both record, so
      [Recorder.records = submitted]. This is what makes the slow log
      reconcile with the serve audit counters.
    - [RX702] every retained trace is well-nested (the RX401
      discipline applied to the stored tree) with no negative durations —
      retention must store the chronological span order verbatim.
    - [RX703] tenant series cardinality respects the bound: at most
      [tenant_cap] named series plus the shared overflow bucket. *)

val check :
  ?submitted:int -> Rox_telemetry.Recorder.t -> Diagnostic.t list
(** [check ~submitted recorder] — omit [submitted] when no serve audit is
    available (e.g. a CLI-run recorder), which skips RX701. *)
