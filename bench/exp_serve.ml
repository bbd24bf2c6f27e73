(* The serving front-end under load — the payoff of lib/serve.

   Three legs against one shared XMark engine:

   1. Closed-loop saturation: G client threads submit back-to-back with
      per-request distinct thresholds (defeating any cache), at 1 worker
      domain and at N — the saturation qps pair.
   2. Open-loop latency: requests arrive on a fixed schedule (fractions
      of the measured saturation rate); latency is completion minus the
      *scheduled* arrival, so queueing delay counts. p50/p99 from the
      serve-side histogram-free client-side samples.
   3. A scripted protocol session over a socketpair.

   Writes BENCH_serve.json; fails hard on audit diagnostics (RX601/RX603)
   or a failed protocol session. *)

open Bench_common
module P = Rox_serve.Protocol
module S = Rox_serve.Server

let query_for i =
  (* 97 distinct thresholds => 97 distinct fingerprints, round-robin. *)
  q1_query (if i mod 2 = 0 then "<" else ">") (50 + (i mod 97))

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* G threads drain a shared request counter as fast as the server lets
   them: the closed-loop saturation measurement. *)
let closed_loop server ~clients ~requests =
  let next = Atomic.make 0 in
  let rejected = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let body () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < requests then begin
        (match S.submit server (P.query (query_for i)) with
         | P.Err (P.Busy, _) -> Atomic.incr rejected
         | _ -> ());
        go ()
      end
    in
    go ()
  in
  let threads = List.init clients (fun _ -> Thread.create body ()) in
  List.iter Thread.join threads;
  let dt = Unix.gettimeofday () -. t0 in
  let qps = float_of_int requests /. dt in
  (qps, Atomic.get rejected)

(* Open loop: request i is *scheduled* at t0 + i/rate regardless of how
   the server is doing; a thread pool picks up arrivals. Latency counts
   from the scheduled arrival, so a saturated server shows its queueing
   delay instead of hiding it. *)
let open_loop server ~clients ~requests ~rate =
  let next = Atomic.make 0 in
  let rejected = Atomic.make 0 in
  let latencies = Array.make requests nan in
  let t0 = Unix.gettimeofday () in
  let body () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < requests then begin
        let scheduled = t0 +. (float_of_int i /. rate) in
        let now = Unix.gettimeofday () in
        if scheduled > now then Thread.delay (scheduled -. now);
        (match S.submit server (P.query (query_for i)) with
         | P.Err (P.Busy, _) -> Atomic.incr rejected
         | _ -> latencies.(i) <- (Unix.gettimeofday () -. scheduled) *. 1e3);
        go ()
      end
    in
    go ()
  in
  let threads = List.init clients (fun _ -> Thread.create body ()) in
  List.iter Thread.join threads;
  let dt = Unix.gettimeofday () -. t0 in
  let served =
    Array.to_list latencies |> List.filter (fun l -> not (Float.is_nan l))
  in
  let sorted = Array.of_list (List.sort compare served) in
  let achieved = float_of_int (Array.length sorted) /. dt in
  ( percentile sorted 0.50,
    percentile sorted 0.99,
    achieved,
    Atomic.get rejected )

let run ?(factor = 0.1) ?(requests = 90) () =
  header "Serving front-end: admission, worker domains";
  let engine = xmark_engine ~factor () in
  let n_cores = cores () in
  let big_workers = 4 in
  Printf.printf "machine: %d recommended domain(s)\n%!" n_cores;

  (* -- closed-loop saturation at 1 and N workers ---------------------- *)
  let saturation =
    List.map
      (fun workers ->
        let server =
          S.create (S.config ~workers ~queue_capacity:256 engine)
        in
        let qps, rejected =
          closed_loop server ~clients:(2 * workers) ~requests
        in
        S.shutdown server;
        let audit_ok = S.self_check server = [] in
        Printf.printf
          "closed loop, %d worker(s): %7.1f q/s (%d rejected)%s\n%!" workers
          qps rejected
          (if audit_ok then "" else "  AUDIT FAILED");
        (workers, qps, rejected, audit_ok))
      [ 1; big_workers ]
  in
  let sat_qps =
    match List.rev saturation with (_, q, _, _) :: _ -> q | [] -> 1.0
  in

  (* -- open-loop latency at fractions of saturation ------------------- *)
  let open_runs =
    List.map
      (fun frac ->
        let rate = Float.max 1.0 (frac *. sat_qps) in
        let server =
          S.create (S.config ~workers:big_workers ~queue_capacity:256 engine)
        in
        let p50, p99, achieved, rejected =
          open_loop server ~clients:(2 * big_workers) ~requests ~rate
        in
        S.shutdown server;
        let audit_ok = S.self_check server = [] in
        Printf.printf
          "open loop %4.0f%% of saturation (%6.1f q/s): p50 %6.2f ms  p99 \
           %7.2f ms  achieved %6.1f q/s%s\n%!"
          (frac *. 100.) rate p50 p99 achieved
          (if audit_ok then "" else "  AUDIT FAILED");
        (frac, rate, p50, p99, achieved, rejected, audit_ok))
      [ 0.5; 0.8 ]
  in

  (* -- scripted protocol session over a socketpair -------------------- *)
  let sp_server = S.create (S.config ~workers:2 ~queue_capacity:16 engine) in
  let srv_fd, cli_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let handler = Thread.create (fun () -> S.handle_connection sp_server srv_fd) () in
  let socketpair_ok =
    let d = P.decoder () in
    let send r = P.write_frame cli_fd (P.render_request r) in
    let recv () =
      match P.read_frame cli_fd d with
      | `Frame payload ->
        (match P.parse_response payload with Ok r -> r | Error m -> failwith m)
      | `Eof -> failwith "eof"
      | `Corrupt m -> failwith m
    in
    send P.Ping;
    let pong_ok = recv () = P.Pong in
    send (P.Query (P.query (q1_query "<" 145)));
    let answered = match recv () with P.Answer a -> a.total >= 0 | _ -> false in
    send P.Stats;
    let stats_ok =
      match recv () with
      | P.Stats_reply kvs -> List.mem_assoc "requests" kvs
      | _ -> false
    in
    send P.Quit;
    let bye_ok = recv () = P.Bye in
    pong_ok && answered && stats_ok && bye_ok
  in
  Thread.join handler;
  (try Unix.close cli_fd with Unix.Unix_error _ -> ());
  S.shutdown sp_server;
  let sp_audit_ok = S.self_check sp_server = [] in
  Printf.printf "socketpair session: %s\n%!"
    (if socketpair_ok && sp_audit_ok then "ok" else "FAILED");

  let audits_ok =
    List.for_all (fun (_, _, _, ok) -> ok) saturation
    && List.for_all (fun (_, _, _, _, _, _, ok) -> ok) open_runs
    && sp_audit_ok
  in
  let all_ok = audits_ok && socketpair_ok in

  (* -- BENCH_serve.json ---------------------------------------------- *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  %s,\n" (machine_json ~domains_used:big_workers));
  Buffer.add_string buf (Printf.sprintf "  \"cores\": %d,\n" n_cores);
  Buffer.add_string buf (Printf.sprintf "  \"requests_per_leg\": %d,\n" requests);
  Buffer.add_string buf "  \"closed_loop\": [\n";
  List.iteri
    (fun i (workers, qps, rejected, _) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"workers\": %d, \"saturation_qps\": %.1f, \"rejected\": %d}%s\n"
           workers qps rejected
           (if i = List.length saturation - 1 then "" else ",")))
    saturation;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"open_loop\": [\n";
  List.iteri
    (fun i (frac, rate, p50, p99, achieved, rejected, _) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"workers\": %d, \"saturation_fraction\": %.2f, \"rate_qps\": \
            %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"achieved_qps\": %.1f, \
            \"rejected\": %d}%s\n"
           big_workers frac rate p50 p99 achieved rejected
           (if i = List.length open_runs - 1 then "" else ",")))
    open_runs;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf (Printf.sprintf "  \"socketpair_ok\": %b,\n" socketpair_ok);
  Buffer.add_string buf (Printf.sprintf "  \"audits_clean\": %b,\n" audits_ok);
  Buffer.add_string buf (Printf.sprintf "  \"all_ok\": %b\n" all_ok);
  Buffer.add_string buf "}\n";
  let path = "BENCH_serve.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  if not all_ok then failwith "serve bench failed its invariants"
