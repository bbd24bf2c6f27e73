type counts = {
  sv_requests : int;
  sv_responses : int;
  sv_submitted : int;
  sv_executed : int;
  sv_coalesced : int;
  sv_rejected : int;
}

let check c =
  let diags = ref [] in
  if c.sv_responses > c.sv_requests then
    diags :=
      Diagnostic.of_code "RX601" Diagnostic.Graph_loc
        ~hint:
          "every reply (including protocol errors) must answer exactly one \
           parsed frame"
        (Printf.sprintf "%d response(s) written for %d parsed request(s)"
           c.sv_responses c.sv_requests)
      :: !diags;
  let accounted = c.sv_executed + c.sv_rejected in
  if c.sv_submitted <> accounted then
    diags :=
      Diagnostic.of_code "RX603" Diagnostic.Graph_loc
        ~hint:
          "take the snapshot at quiescence (workers joined, queue drained) \
           — mid-flight snapshots legitimately imbalance"
        (Printf.sprintf
           "%d submitted request(s) but %d accounted (executed %d + \
            rejected %d)"
           c.sv_submitted accounted c.sv_executed c.sv_rejected)
      :: !diags;
  List.rev !diags
