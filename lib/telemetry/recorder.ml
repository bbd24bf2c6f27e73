(* The flight recorder: always-on, bounded accounting of every completed
   request. Each worker domain appends finished request records to its
   own DLS ring slot under a mutex nobody else holds in steady state,
   so the hot path never contends across domains. The rare paths (trace retention,
   tenant series, slow log) share small mutex-guarded tables. *)

type outcome = Executed | Coalesced | Rejected

let outcome_label = function
  | Executed -> "executed"
  | Coalesced -> "coalesced"
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

(* One ring per domain: [cursor] counts every append ever made on this
   slot, so the occupied prefix is [min cursor cap] and the overwrite
   (drop) count is [max 0 (cursor - cap)] — Sink's bounded-buffer
   discipline, derived instead of double-booked. [lat] feeds the
   adaptive tail-sampling threshold with this slot's own served
   latencies, so the retention decision never takes a foreign lock. *)
type slot = {
  ring : record option array;
  mutable cursor : int;
  lat : Metrics.histogram;
  slot_mutex : Mutex.t;
  (* RX5xx access-log identities (-1 when the log was disarmed at slot
     creation): every append or snapshot records one Write at
     [slot_site] under [slot_lock]. *)
  slot_site : int;
  slot_lock : int;
}

(* Bounded per-tenant series: requests, errors, and a serve-latency
   histogram. The registry holds at most [tenant_cap] first-seen tenants
   plus the ["other"] overflow bucket, so a tenant flood cannot grow it. *)
type tenant_series = {
  tn_label : string;
  mutable tn_requests : int;
  mutable tn_errors : int;
  tn_serve_ns : Metrics.histogram;
}

type t = {
  cap : int;
  retain_cap : int;
  head_every : int;
  q : float;
  floor_ns : int;
  warmup : int;
  tenant_cap : int;
  slow_ms : int;
  next_id : int Atomic.t;
  key : slot option Domain.DLS.key;
  reg_mutex : Mutex.t;
  reg_site : int;
  reg_lock : int;
  (* Every slot ever created, newest first; slots outlive their domain
     (records appended by a finished worker stay visible). Guarded by
     [reg_mutex]. *)
  mutable slots : slot list;
  next_slot : int Atomic.t;
  (* Retained traces by id, FIFO-evicted at [retain_cap]. Rare path. *)
  ret_mutex : Mutex.t;
  ret_site : int;
  ret_lock : int;
  retained : (int, record * reason * Sink.span list) Hashtbl.t;
  ret_fifo : int Queue.t;
  (* Tenant registry: first [tenant_cap] distinct ids get their own
     series, the rest fold into ["other"]. Guarded by [ten_mutex]. *)
  ten_mutex : Mutex.t;
  ten_site : int;
  ten_lock : int;
  tenants : (string, tenant_series) Hashtbl.t;
  mutable tenant_order : string list;
  (* Slow-query log: one channel, writes serialized by [log_mutex]. *)
  log_mutex : Mutex.t;
  log_chan : out_channel option;
  mutable log_closed : bool;
  mutable log_lines : int;
}

let site_ids name =
  if Rox_util.Accesslog.armed () then
    ( Rox_util.Accesslog.site ~name Rox_util.Accesslog.Shared,
      Rox_util.Accesslog.lock ~name:(name ^ ".mutex") )
  else (-1, -1)

let create ?(cap = 256) ?(retain_cap = 64) ?(head_every = 128)
    ?(quantile = 0.95) ?(floor_ns = 1_000_000) ?(warmup = 32)
    ?(tenant_cap = 8) ?(slow_ms = 100) ?slow_log () =
  if cap < 1 then invalid_arg "Recorder.create: cap must be >= 1";
  if retain_cap < 1 then invalid_arg "Recorder.create: retain_cap must be >= 1";
  let reg_site, reg_lock = site_ids "telemetry.recorder.registry" in
  let ret_site, ret_lock = site_ids "telemetry.recorder.retained" in
  let ten_site, ten_lock = site_ids "telemetry.recorder.tenants" in
  {
    cap;
    retain_cap;
    head_every;
    q = quantile;
    floor_ns;
    warmup;
    tenant_cap;
    slow_ms;
    next_id = Atomic.make 1;
    key = Domain.DLS.new_key (fun () -> None);
    reg_mutex = Mutex.create ();
    reg_site;
    reg_lock;
    slots = [];
    next_slot = Atomic.make 0;
    ret_mutex = Mutex.create ();
    ret_site;
    ret_lock;
    retained = Hashtbl.create 64;
    ret_fifo = Queue.create ();
    ten_mutex = Mutex.create ();
    ten_site;
    ten_lock;
    tenants = Hashtbl.create 8;
    tenant_order = [];
    log_mutex = Mutex.create ();
    log_chan = Option.map open_out slow_log;
    log_closed = false;
    log_lines = 0;
  }

let next_trace_id t = Atomic.fetch_and_add t.next_id 1

let bracketed ~site ~lock f =
  if Rox_util.Accesslog.armed () then
    Rox_util.Accesslog.with_lock lock (fun () ->
        Rox_util.Accesslog.record ~site Rox_util.Accesslog.Write;
        f ())
  else f ()

let bracketed_slot s f = bracketed ~site:s.slot_site ~lock:s.slot_lock f

let mk_slot t =
  let i = Atomic.fetch_and_add t.next_slot 1 in
  let label = Printf.sprintf "telemetry.recorder.d%d" i in
  let slot_site, slot_lock = site_ids label in
  {
    ring = Array.make t.cap None;
    cursor = 0;
    lat =
      Metrics.histogram "rox_recorder_latency_ns"
        "served-request latency as seen by the flight recorder";
    slot_mutex = Mutex.create ();
    slot_site;
    slot_lock;
  }

(* The calling domain's slot, created and registered on first use. *)
let local t =
  match Domain.DLS.get t.key with
  | Some s -> s
  | None ->
    let s = mk_slot t in
    Mutex.protect t.reg_mutex (fun () ->
        bracketed ~site:t.reg_site ~lock:t.reg_lock (fun () ->
            t.slots <- s :: t.slots));
    Domain.DLS.set t.key (Some s);
    s

let slot_dropped t s = max 0 (s.cursor - t.cap)

(* ------------------------------------------------------------------ *)
(* Adaptive tail-sampling threshold                                   *)

let threshold_of_hist t (h : Metrics.histogram) =
  if h.Metrics.h_count < t.warmup then t.floor_ns
  else max t.floor_ns (int_of_float (Metrics.quantile h t.q))

(* Process-wide view (STATS / diagnostics): fold every slot's latency
   histogram, one slot mutex at a time, then apply the same rule the
   per-slot decision uses. *)
let threshold_ns t =
  let merged =
    Metrics.histogram "rox_recorder_latency_ns" "merged recorder latency"
  in
  let slots = Mutex.protect t.reg_mutex (fun () -> t.slots) in
  List.iter
    (fun s ->
      Mutex.protect s.slot_mutex (fun () ->
          bracketed_slot s (fun () ->
              Metrics.add_histogram ~into:merged s.lat)))
    slots;
  threshold_of_hist t merged

(* ------------------------------------------------------------------ *)
(* Tenant series                                                      *)

let tenant_observe t (r : record) =
  Mutex.protect t.ten_mutex (fun () ->
      bracketed ~site:t.ten_site ~lock:t.ten_lock (fun () ->
          let series key =
            match Hashtbl.find_opt t.tenants key with
            | Some s -> s
            | None ->
              let s =
                {
                  tn_label = key;
                  tn_requests = 0;
                  tn_errors = 0;
                  tn_serve_ns =
                    Metrics.histogram "rox_tenant_serve_duration_ns"
                      "per-tenant served-request latency";
                }
              in
              Hashtbl.replace t.tenants key s;
              t.tenant_order <- t.tenant_order @ [ key ];
              s
          in
          let s =
            if Hashtbl.mem t.tenants r.tenant then series r.tenant
            else if Hashtbl.length t.tenants
                    - (if Hashtbl.mem t.tenants "other" then 1 else 0)
                    < t.tenant_cap
            then series r.tenant
            else series "other"
          in
          s.tn_requests <- s.tn_requests + 1;
          if r.status <> "ok" then s.tn_errors <- s.tn_errors + 1;
          Metrics.observe s.tn_serve_ns r.latency_ns))

type tenant_stat = {
  tenant : string;
  requests : int;
  errors : int;
  serve_ns : Metrics.histogram;
}

let tenant_stats t =
  Mutex.protect t.ten_mutex (fun () ->
      bracketed ~site:t.ten_site ~lock:t.ten_lock (fun () ->
          List.filter_map
            (fun key ->
              Option.map
                (fun s ->
                  {
                    tenant = s.tn_label;
                    requests = s.tn_requests;
                    errors = s.tn_errors;
                    serve_ns = s.tn_serve_ns;
                  })
                (Hashtbl.find_opt t.tenants key))
            t.tenant_order))

let tenant_count t =
  Mutex.protect t.ten_mutex (fun () -> Hashtbl.length t.tenants)

let tenant_cap t = t.tenant_cap

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

let maybe_slow_log t (r : record) reason =
  match t.log_chan with
  | None -> ()
  | Some oc ->
    let slow = r.latency_ns >= t.slow_ms * 1_000_000 in
    let errored = r.status <> "ok" in
    if slow || errored then
      Mutex.protect t.log_mutex (fun () ->
          if not t.log_closed then begin
            output_string oc
              (Rox_util.Minijson.to_string (json_of_record ?reason r));
            output_char oc '\n';
            flush oc;
            t.log_lines <- t.log_lines + 1
          end)

let log_lines t = Mutex.protect t.log_mutex (fun () -> t.log_lines)

let close t =
  match t.log_chan with
  | None -> ()
  | Some oc ->
    Mutex.protect t.log_mutex (fun () ->
        if not t.log_closed then begin
          t.log_closed <- true;
          close_out oc
        end)

(* ------------------------------------------------------------------ *)
(* The hot path                                                       *)

let observe t (r : record) =
  let s = local t in
  let reason =
    Mutex.protect s.slot_mutex (fun () ->
        bracketed_slot s (fun () ->
            (* Decide retention against the threshold as it stood before
               this request — a latency spike must not raise the bar for
               itself. *)
            let thr = threshold_of_hist t s.lat in
            let errored = r.status <> "ok" in
            let slow = r.outcome <> Rejected && r.latency_ns >= thr in
            let head =
              t.head_every > 0 && r.trace_id mod t.head_every = 0
            in
            s.ring.(s.cursor mod t.cap) <- Some r;
            s.cursor <- s.cursor + 1;
            if r.outcome <> Rejected then Metrics.observe s.lat r.latency_ns;
            if errored then Some Errored
            else if slow then Some Slow
            else if head then Some Head_sampled
            else None))
  in
  tenant_observe t r;
  maybe_slow_log t r reason;
  reason

let records t =
  let slots = Mutex.protect t.reg_mutex (fun () -> t.slots) in
  List.fold_left
    (fun acc s ->
      acc + Mutex.protect s.slot_mutex (fun () -> bracketed_slot s (fun () -> s.cursor)))
    0 slots

let dropped t =
  let slots = Mutex.protect t.reg_mutex (fun () -> t.slots) in
  List.fold_left
    (fun acc s ->
      acc
      + Mutex.protect s.slot_mutex (fun () ->
            bracketed_slot s (fun () -> slot_dropped t s)))
    0 slots

let recent t n =
  let slots = Mutex.protect t.reg_mutex (fun () -> t.slots) in
  let all =
    List.concat_map
      (fun s ->
        Mutex.protect s.slot_mutex (fun () ->
            bracketed_slot s (fun () ->
                let live = min s.cursor t.cap in
                let out = ref [] in
                for i = 0 to live - 1 do
                  match s.ring.(i) with
                  | Some r -> out := r :: !out
                  | None -> ()
                done;
                !out)))
      slots
  in
  let sorted =
    List.sort (fun a b -> compare b.trace_id a.trace_id) all
  in
  List.filteri (fun i _ -> i < n) sorted

(* ------------------------------------------------------------------ *)
(* Retained traces                                                    *)

let retain t (r : record) reason spans =
  Mutex.protect t.ret_mutex (fun () ->
      bracketed ~site:t.ret_site ~lock:t.ret_lock (fun () ->
          if not (Hashtbl.mem t.retained r.trace_id) then begin
            Hashtbl.replace t.retained r.trace_id (r, reason, spans);
            Queue.push r.trace_id t.ret_fifo;
            while Queue.length t.ret_fifo > t.retain_cap do
              Hashtbl.remove t.retained (Queue.pop t.ret_fifo)
            done
          end))

let find_trace t id =
  Mutex.protect t.ret_mutex (fun () ->
      bracketed ~site:t.ret_site ~lock:t.ret_lock (fun () ->
          Hashtbl.find_opt t.retained id))

let retained_count t =
  Mutex.protect t.ret_mutex (fun () -> Hashtbl.length t.retained)

let traces t =
  Mutex.protect t.ret_mutex (fun () ->
      bracketed ~site:t.ret_site ~lock:t.ret_lock (fun () ->
          Hashtbl.fold
            (fun id (r, reason, spans) acc -> (id, r, reason, spans) :: acc)
            t.retained []))

(* ------------------------------------------------------------------ *)
(* Helpers for building records                                       *)

let plan_digest edge_order =
  match edge_order with
  | [] -> "-"
  | order ->
    let hex =
      Digest.to_hex
        (Digest.string (String.concat "," (List.map string_of_int order)))
    in
    String.sub hex 0 12

let edge_timings_of_spans spans =
  List.filter_map
    (fun (s : Sink.span) ->
      if s.Sink.name = "execute_edge" then
        match List.assoc_opt "edge" s.Sink.attrs with
        | Some e -> (
          match int_of_string_opt e with
          | Some id -> Some (id, Int64.to_int s.Sink.dur_ns)
          | None -> None)
        | None -> None
      else None)
    spans

(* ------------------------------------------------------------------ *)
(* Prometheus series                                                  *)

let prometheus t =
  let buf = Buffer.create 1024 in
  let head name help kind =
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  head "rox_recorder_records_total"
    "request records appended to the flight recorder" "counter";
  Buffer.add_string buf
    (Printf.sprintf "rox_recorder_records_total %d\n" (records t));
  head "rox_recorder_records_dropped_total"
    "request records overwritten by the ring cap" "counter";
  Buffer.add_string buf
    (Printf.sprintf "rox_recorder_records_dropped_total %d\n" (dropped t));
  head "rox_recorder_traces_retained"
    "full span trees currently addressable by trace id" "gauge";
  Buffer.add_string buf
    (Printf.sprintf "rox_recorder_traces_retained %d\n" (retained_count t));
  head "rox_recorder_slow_threshold_ns"
    "adaptive tail-sampling latency threshold" "gauge";
  Buffer.add_string buf
    (Printf.sprintf "rox_recorder_slow_threshold_ns %d\n" (threshold_ns t));
  let stats = tenant_stats t in
  if stats <> [] then begin
    head "rox_tenant_requests_total" "served requests per tenant" "counter";
    List.iter
      (fun s ->
        Buffer.add_string buf
          (Printf.sprintf "rox_tenant_requests_total{tenant=\"%s\"} %d\n"
             (Export.escape_label s.tenant) s.requests))
      stats;
    head "rox_tenant_errors_total" "error replies per tenant" "counter";
    List.iter
      (fun s ->
        Buffer.add_string buf
          (Printf.sprintf "rox_tenant_errors_total{tenant=\"%s\"} %d\n"
             (Export.escape_label s.tenant) s.errors))
      stats;
    head "rox_tenant_serve_duration_ns" "per-tenant served-request latency"
      "histogram";
    List.iter
      (fun s ->
        let label = Export.escape_label s.tenant in
        let h = s.serve_ns in
        let highest = ref (-1) in
        Array.iteri
          (fun i n -> if n > 0 then highest := i)
          h.Metrics.h_buckets;
        let cum = ref 0 in
        for i = 0 to !highest do
          cum := !cum + h.Metrics.h_buckets.(i);
          Buffer.add_string buf
            (Printf.sprintf
               "rox_tenant_serve_duration_ns_bucket{tenant=\"%s\",le=\"%d\"} %d\n"
               label (Metrics.bucket_upper i) !cum)
        done;
        Buffer.add_string buf
          (Printf.sprintf
             "rox_tenant_serve_duration_ns_bucket{tenant=\"%s\",le=\"+Inf\"} %d\n"
             label h.Metrics.h_count);
        Buffer.add_string buf
          (Printf.sprintf "rox_tenant_serve_duration_ns_sum{tenant=\"%s\"} %d\n"
             label h.Metrics.h_sum);
        Buffer.add_string buf
          (Printf.sprintf
             "rox_tenant_serve_duration_ns_count{tenant=\"%s\"} %d\n" label
             h.Metrics.h_count))
      stats
  end;
  Buffer.contents buf
