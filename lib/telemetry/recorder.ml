(* The flight recorder: always-on, bounded accounting of every completed
   request, entered through one record builder (record_request) under a
   fixed policy. One ring, one latency histogram, the retained traces,
   the tenant series and the slow-log state sit in one Guarded.t, so the
   retention decision and the threshold STATS reports read the same
   histogram. *)

module Guarded = Rox_util.Guarded

type outcome = Executed | Rejected

let outcome_label = function
  | Executed -> "executed"
  | Rejected -> "rejected"

type reason = Slow | Errored | Head_sampled

let reason_label = function
  | Slow -> "slow"
  | Errored -> "errored"
  | Head_sampled -> "head_sampled"

type record = {
  trace_id : int;
  fingerprint : string;
  tenant : string;
  plan_digest : string;
  plan_edges : int;
  latency_ns : int;
  queue_ns : int;
  sampling_units : int;
  execution_units : int;
  cache_hits : int;
  cache_misses : int;
  outcome : outcome;
  status : string;
  edge_ns : (int * int) list;
}

(* Bounded per-tenant series: requests, errors, and a serve-latency
   histogram. The table holds at most [tenant_cap] first-seen tenants
   plus the ["other"] overflow bucket, so a tenant flood cannot grow it. *)
type tenant_series = {
  mutable tn_requests : int;
  mutable tn_errors : int;
  tn_serve_ns : Metrics.histogram;
}

(* The fixed policy. *)
let cap = 256
let retain_cap = 64
let head_every = 128
let quantile = 0.95
let floor_ns = 1_000_000
let warmup = 32
let tenant_cap = 8

(* Everything [record_request] and the readers touch, in one
   [Guarded.t]: reachable only under the recorder's one lock. *)
type state = {
  (* The ring: [cursor] counts every append ever made, so the occupied
     prefix is [min cursor cap] and the overwrite (drop) count is
     [max 0 (cursor - cap)] — Sink's bounded-buffer discipline, derived
     instead of double-booked. *)
  ring : record option array;
  mutable cursor : int;
  (* Served latencies: the adaptive tail-sampling threshold. *)
  lat : Metrics.histogram;
  (* Retained traces by id, FIFO-evicted at [retain_cap]. *)
  retained : (int, record * reason * Sink.snapshot) Hashtbl.t;
  ret_fifo : int Queue.t;
  (* First [tenant_cap] distinct ids get their own series, the rest fold
     into ["other"]. *)
  tenants : (string, tenant_series) Hashtbl.t;
  (* The slow log; [None] once closed (or never opened). *)
  mutable log_chan : out_channel option;
  mutable log_lines : int;
}

type t = {
  slow_ms : int;
  (* Whether a slow log was configured: decides outside the lock whether
     a record's line is worth formatting. *)
  logging : bool;
  next_id : int Atomic.t;
  state : state Guarded.t;
}

let create ?(slow_ms = 100) ?slow_log () =
  if slow_ms < 0 then invalid_arg "Recorder.create: slow_ms must be >= 0";
  {
    slow_ms;
    logging = Option.is_some slow_log;
    next_id = Atomic.make 1;
    state =
      Guarded.create
        {
          ring = Array.make cap None;
          cursor = 0;
          lat =
            Metrics.histogram "rox_recorder_latency_ns"
              "served-request latency as seen by the flight recorder";
          retained = Hashtbl.create 64;
          ret_fifo = Queue.create ();
          tenants = Hashtbl.create 8;
          log_chan = Option.map open_out slow_log;
          log_lines = 0;
        };
  }

let next_trace_id t = Atomic.fetch_and_add t.next_id 1

(* ------------------------------------------------------------------ *)
(* Adaptive tail-sampling threshold                                   *)

let threshold_locked s =
  if s.lat.Metrics.h_count < warmup then floor_ns
  else max floor_ns (int_of_float (Metrics.quantile s.lat quantile))

let threshold_ns t = Guarded.with_lock t.state threshold_locked

(* ------------------------------------------------------------------ *)
(* Tenant series                                                      *)

let tenant_observe_locked st (r : record) =
  let series key =
    match Hashtbl.find_opt st.tenants key with
    | Some s -> s
    | None ->
      let s =
        {
          tn_requests = 0;
          tn_errors = 0;
          tn_serve_ns =
            Metrics.histogram "rox_tenant_serve_duration_ns"
              "per-tenant served-request latency";
        }
      in
      Hashtbl.replace st.tenants key s;
      s
  in
  let named =
    Hashtbl.length st.tenants - Bool.to_int (Hashtbl.mem st.tenants "other")
  in
  let s =
    if Hashtbl.mem st.tenants r.tenant || named < tenant_cap then
      series r.tenant
    else series "other"
  in
  s.tn_requests <- s.tn_requests + 1;
  if r.status <> "ok" then s.tn_errors <- s.tn_errors + 1;
  Metrics.observe s.tn_serve_ns r.latency_ns

type tenant_stat = {
  tenant : string;
  requests : int;
  errors : int;
  serve_ns : Metrics.histogram;
}

let tenant_stats_locked s =
  Hashtbl.fold
    (fun tenant s acc ->
      {
        tenant;
        requests = s.tn_requests;
        errors = s.tn_errors;
        serve_ns = s.tn_serve_ns;
      }
      :: acc)
    s.tenants []
  |> List.sort (fun (a : tenant_stat) b -> String.compare a.tenant b.tenant)

let tenant_stats t = Guarded.with_lock t.state tenant_stats_locked

let tenant_count t = Guarded.with_lock t.state (fun s -> Hashtbl.length s.tenants)

(* ------------------------------------------------------------------ *)
(* Slow-query log                                                     *)

let json_of_record ?reason (r : record) =
  let module J = Rox_util.Minijson in
  let num i = J.Num (float_of_int i) in
  J.Obj
    [
      ("trace_id", num r.trace_id);
      ("fingerprint", J.Str r.fingerprint);
      ("tenant", J.Str r.tenant);
      ("plan", J.Str r.plan_digest);
      ("plan_edges", num r.plan_edges);
      ("latency_ms", J.Num (Clock.ms_of_ns r.latency_ns));
      ("queue_ms", J.Num (Clock.ms_of_ns r.queue_ns));
      ("sampling_units", num r.sampling_units);
      ("execution_units", num r.execution_units);
      ("cache_hits", num r.cache_hits);
      ("cache_misses", num r.cache_misses);
      ("outcome", J.Str (outcome_label r.outcome));
      ("status", J.Str r.status);
      ( "retained",
        match reason with
        | None -> J.Null
        | Some x -> J.Str (reason_label x) );
      ( "edges",
        J.Arr
          (List.map
             (fun (e, ns) -> J.Obj [ ("edge", num e); ("ns", num ns) ])
             r.edge_ns) );
    ]

(* The line is formatted outside the lock; only the write and the flush
   hold it, so lines never interleave and close cannot race a write. A
   failed write (a full disk, a vanished mount) closes the log with one
   stderr line: the slow log is a side channel, and the request being
   recorded still gets its record, its retention and its reply. *)
let slow_log t (r : record) reason =
  if t.logging && (r.latency_ns >= t.slow_ms * 1_000_000 || r.status <> "ok")
  then
    let line =
      Rox_util.Minijson.to_string (json_of_record ?reason r) ^ "\n"
    in
    Guarded.with_lock t.state (fun s ->
        match s.log_chan with
        | None -> ()
        | Some oc -> (
          match
            output_string oc line;
            flush oc
          with
          | () -> s.log_lines <- s.log_lines + 1
          | exception Sys_error m ->
            s.log_chan <- None;
            close_out_noerr oc;
            Printf.eprintf "rox: slow log write failed (%s); slow log closed\n%!" m))

let log_lines t = Guarded.with_lock t.state (fun s -> s.log_lines)

let close t =
  Guarded.with_lock t.state (fun s ->
      match s.log_chan with
      | None -> ()
      | Some oc ->
        s.log_chan <- None;
        close_out oc)

(* ------------------------------------------------------------------ *)
(* The hot path                                                       *)

let observe t (r : record) =
  Guarded.with_lock t.state (fun s ->
      (* Decide retention against the threshold as it stood before this
         request — a latency spike must not raise the bar for itself. *)
      let thr = threshold_locked s in
      let slow = r.outcome <> Rejected && r.latency_ns >= thr in
      let head = r.trace_id mod head_every = 0 in
      s.ring.(s.cursor mod cap) <- Some r;
      s.cursor <- s.cursor + 1;
      if r.outcome <> Rejected then Metrics.observe s.lat r.latency_ns;
      tenant_observe_locked s r;
      if r.status <> "ok" then Some Errored
      else if slow then Some Slow
      else if head then Some Head_sampled
      else None)

let records t = Guarded.with_lock t.state (fun s -> s.cursor)

let dropped_locked s = max 0 (s.cursor - cap)

let dropped t = Guarded.with_lock t.state dropped_locked

let recent t n =
  let live =
    Guarded.with_lock t.state (fun s ->
        List.init (min s.cursor cap) (fun i -> Option.get s.ring.(i)))
  in
  List.sort (fun a b -> compare b.trace_id a.trace_id) live
  |> List.filteri (fun i _ -> i < n)

(* ------------------------------------------------------------------ *)
(* Retained traces                                                    *)

let retain t (r : record) reason snapshot =
  Guarded.with_lock t.state (fun s ->
      if not (Hashtbl.mem s.retained r.trace_id) then begin
        Hashtbl.replace s.retained r.trace_id (r, reason, snapshot);
        Queue.push r.trace_id s.ret_fifo;
        while Queue.length s.ret_fifo > retain_cap do
          Hashtbl.remove s.retained (Queue.pop s.ret_fifo)
        done
      end)

let find_trace t id =
  Guarded.with_lock t.state (fun s -> Hashtbl.find_opt s.retained id)

let retained_count t =
  Guarded.with_lock t.state (fun s -> Hashtbl.length s.retained)

(* Snapshots are immutable, so they are rendered outside the lock. *)
let traces t =
  Guarded.with_lock t.state (fun s ->
      Hashtbl.fold
        (fun id (r, reason, snap) acc -> (id, r, reason, snap) :: acc)
        s.retained [])
  |> List.map (fun (id, r, reason, snap) ->
         (id, r, reason, Sink.snapshot_timeline snap))

(* ------------------------------------------------------------------ *)
(* The record builder                                                 *)

let plan_digest edge_order =
  match edge_order with
  | [] -> "-"
  | order ->
    let hex =
      Digest.to_hex
        (Digest.string (String.concat "," (List.map string_of_int order)))
    in
    String.sub hex 0 12

(* Raw close-order spans are fine for per-edge timings; the chronological
   sort is paid only when the tree is retained. *)
let edge_timings spans =
  List.filter_map
    (fun (s : Sink.span) ->
      if s.Sink.name = "execute_edge" then
        Option.map
          (fun id -> (id, Int64.to_int s.Sink.dur_ns))
          (Option.bind (List.assoc_opt "edge" s.Sink.attrs) int_of_string_opt)
      else None)
    spans

type run = {
  sink : Sink.t;
  plan : int list;
  sampling_units : int;
  execution_units : int;
}

let record_request t ~trace_id ~query ~tenant ~outcome ~status ~latency_ns
    ~queue_ns run =
  let plan, sampling_units, execution_units, cache_hits, cache_misses, edge_ns
      =
    match run with
    | None -> ([], 0, 0, 0, 0, [])
    | Some run ->
      let m = Sink.metrics run.sink in
      let c (x : Metrics.counter) = x.Metrics.c_value in
      ( run.plan,
        run.sampling_units,
        run.execution_units,
        c m.Metrics.relation_cache_hits + c m.Metrics.estimate_cache_hits,
        c m.Metrics.relation_cache_misses + c m.Metrics.estimate_cache_misses,
        edge_timings (Sink.spans run.sink) )
  in
  let r =
    {
      trace_id;
      fingerprint = String.sub (Digest.to_hex (Digest.string query)) 0 12;
      tenant;
      plan_digest = plan_digest plan;
      plan_edges = List.length plan;
      latency_ns;
      queue_ns;
      sampling_units;
      execution_units;
      cache_hits;
      cache_misses;
      outcome;
      status;
      edge_ns;
    }
  in
  (* The slow-log line is written after retention is settled, so its
     "retained" field names only a trace that TRACE can fetch: a request
     without spans (rejected, or out of deadline in the queue) keeps none. *)
  let kept =
    match (observe t r, run) with
    | Some reason, Some run -> (
      match Sink.snapshot run.sink with
      | Some snap ->
        retain t r reason snap;
        Some reason
      | None -> None)
    | _ -> None
  in
  slow_log t r kept;
  r

(* ------------------------------------------------------------------ *)
(* Prometheus series                                                  *)

(* The page renders inside one critical section: scrapes are rare, and
   the counters, the threshold and the tenant histograms it prints are
   one consistent snapshot. *)
let prometheus t =
  let buf = Buffer.create 1024 in
  let head name help kind =
    Printf.bprintf buf "# HELP %s %s\n# TYPE %s %s\n" name help name kind
  in
  Guarded.with_lock t.state (fun st ->
      head "rox_recorder_records_total"
        "request records appended to the flight recorder" "counter";
      Printf.bprintf buf "rox_recorder_records_total %d\n" st.cursor;
      head "rox_recorder_records_dropped_total"
        "request records overwritten by the ring cap" "counter";
      Printf.bprintf buf "rox_recorder_records_dropped_total %d\n"
        (dropped_locked st);
      head "rox_recorder_traces_retained"
        "full span trees currently addressable by trace id" "gauge";
      Printf.bprintf buf "rox_recorder_traces_retained %d\n"
        (Hashtbl.length st.retained);
      head "rox_recorder_slow_threshold_ns"
        "adaptive tail-sampling latency threshold" "gauge";
      Printf.bprintf buf "rox_recorder_slow_threshold_ns %d\n"
        (threshold_locked st);
      let stats = tenant_stats_locked st in
      if stats <> [] then begin
        head "rox_tenant_requests_total" "served requests per tenant" "counter";
        List.iter
          (fun s ->
            Printf.bprintf buf "rox_tenant_requests_total{tenant=\"%s\"} %d\n"
              (Export.escape_label s.tenant) s.requests)
          stats;
        head "rox_tenant_errors_total" "error replies per tenant" "counter";
        List.iter
          (fun s ->
            Printf.bprintf buf "rox_tenant_errors_total{tenant=\"%s\"} %d\n"
              (Export.escape_label s.tenant) s.errors)
          stats;
        head "rox_tenant_serve_duration_ns" "per-tenant served-request latency"
          "histogram";
        List.iter
          (fun s -> Export.histogram_series buf ~label:("tenant", s.tenant) s.serve_ns)
          stats
      end);
  Buffer.contents buf
